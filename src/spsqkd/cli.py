"""Command-line front end for rate curves, sweeps, simulation, and ingest.

One subcommand per derived artifact:

    skr-curve     rate versus channel loss for one protocol
    gamma-map     relative-gain map over the (p1, p2) simplex
    optimal-t     heralding beam-splitter transmission versus p2
    gamma-vs-eta  relative gain along an efficiency sweep
    simulate      pulse-level Monte Carlo, report as JSON
    ingest        tomography CSVs to observed rates and key-rate points

Sources, channels, and budgets are JSON files: pass a path, or a bare
name resolved against the bundled fixtures (override the root with the
QKD_FIXTURES_DIR environment variable).  Outputs are deterministic for
a given argument list and seed; every CSV starts with `# spsqkd
<version>` and `# config <hash>` comment lines, JSON reports carry the
same as fields, and scalar results (maximal channel loss, contour fits)
append as trailing comment lines.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (GammaMap, dtb_rate_fn, gamma_map_dtb,
                       gamma_vs_efficiency, hp_rate_fn,
                       optimal_bs_transmission, skr_curve, wcs_curve_fn,
                       wcs_rate_fn)
from .channel_model import ChannelParams
from .errors import ConfigError, FitError, QkdError, json_number
from .ingest import (AliceBudget, gains_and_errors, read_tomography_csv,
                     skr_from_experiment)
from .montecarlo import SimConfig, run
from .photon_source import PhotonDistribution
from .protocols import DEFAULT_ETA_D, DEFAULT_Q_SIFT, DEFAULT_T, check_herald

PROTOCOLS = ("dtb", "hp", "wcs", "perfect-sps")

# Largest gamma-map grid accepted: the lockstep search over n**2 points
# peaks near 164 MB of process memory at this size (ru_maxrss of
# `gamma-map --grid 1000`, numpy 2.4.6, x86-64 Linux), as does the search
# alone; the CSV is written one map row at a time, so formatting adds
# nothing to that peak.
MAX_GRID = 1000
# Largest optimal-t --p2 sweep: optimal_bs_transmission keeps about 1.2 kB
# per weight (tracemalloc peak 24.0 MB at 20,000 weights), so this many
# peak near 156 MB, within the MAX_GRID map's 164 MB.
MAX_WEIGHTS = 130_000
# Largest skr-curve --loss and gamma-vs-eta --eta sweeps, from the same
# budget: tracemalloc peaks of 46.4 MB at 60,000 losses (skr-curve
# --protocol wcs, the costliest) and 43.9 MB at 120,000 efficiencies
# (gamma-vs-eta --protocol hp) put these near 155 and 146 MB.
MAX_LOSSES = 200_000
MAX_EFFICIENCIES = 400_000


def fixtures_root() -> Path:
    """Fixture directory: QKD_FIXTURES_DIR if set, else the bundled one."""
    env = os.environ.get("QKD_FIXTURES_DIR")
    if env:
        return Path(env)
    return Path(str(resources.files("spsqkd").joinpath("fixtures")))


def _resolve(arg: str, kind: str) -> Path:
    p = Path(arg)
    if p.suffix == ".json" or os.sep in arg:
        if p.is_file():
            return p
        raise ConfigError(f"{kind} file not found: {arg}")
    named = fixtures_root() / f"{arg}.json"
    if named.is_file():
        return named
    raise ConfigError(f"unknown {kind} fixture {arg!r} (no file {named})")


def _load_json(arg: str, kind: str) -> dict:
    path = _resolve(arg, kind)
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:  # not JSON, or not text
        raise ConfigError(f"{kind} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{kind} file {path} must hold a JSON object")
    return data


def _parse(cls, data, where: str, optional: tuple[str, ...] = ()):
    """``cls`` from the JSON object ``data``, each field read by
    ``json_number``, those in ``optional`` as 0 when absent; a value that
    is not an object, a missing or malformed field, or one that ``cls``
    rejects, as ConfigError naming ``where``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    try:
        return cls(**{f.name: json_number(
            data, f.name, 0.0 if f.name in optional else None)
            for f in dataclasses.fields(cls)})
    except KeyError as exc:
        raise ConfigError(f"{where} lacks required field {exc}") from exc
    except (ConfigError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _load(kind: str, cls, arg: str, optional: tuple[str, ...] = ()):
    """The ``kind`` fixture ``arg`` as a ``cls``."""
    return _parse(cls, _load_json(arg, kind), f"{kind} {arg!r}", optional)


# a source's weights, each 0 when absent
_WEIGHTS = ("p0", "p1", "p2", "p3")


def load_source(arg: str) -> PhotonDistribution:
    return _load("source", PhotonDistribution, arg, _WEIGHTS)


def load_channel(arg: str) -> ChannelParams:
    return _load("channel", ChannelParams, arg, ("loss_db",))


def load_budget(arg: str) -> AliceBudget:
    return _load("budget", AliceBudget, arg)


def load_stats(arg: str) -> dict[str, PhotonDistribution]:
    """Source statistics per intensity label; ``"note"`` is the one key
    that annotates instead."""
    data = _load_json(arg, "stats")
    out = {label: _parse(PhotonDistribution, entry,
                         f"stats {arg!r} entry {label!r}", _WEIGHTS)
           for label, entry in data.items() if label != "note"}
    if not out:
        raise ConfigError(f"stats {arg!r} defines no intensities")
    return out


def _config(args) -> dict:
    """What the ``# config`` hash covers: ``cmd`` and every flag but --out,
    each ``--x-min/-max/-step`` as ``x: [min, max, step]``."""
    config = {"cmd": args.command}
    for key, value in vars(args).items():
        name, _, end = key.rpartition("_")
        if end in ("min", "max", "step"):
            config[name] = [getattr(args, f"{name}_{e}")
                            for e in ("min", "max", "step")]
        elif key not in ("command", "fn", "out"):
            config[key] = value
    return config


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _fmt(value) -> str:
    # numpy scalars repr as np.float64(...); every float NaN reprs as "nan"
    return repr(float(value)) if isinstance(value, float) else str(value)


def _line(cells) -> str:
    return ",".join(map(_fmt, cells))


def _emit(chunks, out: str) -> None:
    if out == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.writelines(chunks)


def write_csv(out: str, config: dict, header: tuple[str, ...],
              lines, footer: dict | None = None) -> None:
    """Stamp, config hash and header, then ``lines`` as they come, then
    the footer.  Each item of ``lines`` is one or more formatted rows,
    joined by newlines, without the last newline."""
    def chunks():
        yield (f"# spsqkd {__version__}\n# config {_config_hash(config)}\n"
               f"{','.join(header)}\n")
        for text in lines:
            yield text + "\n"
        for key, value in (footer or {}).items():
            yield f"# {key} = {_fmt(value)}\n"
    _emit(chunks(), out)


def write_json(out: str, config: dict, payload: dict) -> None:
    doc = {"tool_version": __version__, "config_hash": _config_hash(config)}
    doc.update(payload)
    _emit([json.dumps(doc, sort_keys=True, indent=2) + "\n"], out)


def _sweep(args, name: str, cap: int) -> list[float]:
    """Points ``--<name>-min`` to ``--<name>-max`` by ``--<name>-step``.

    The bounds must be finite with min <= max, the step positive and
    finite, and the sweep at most ``cap`` points; all of this is checked
    before any list is built.
    """
    flag = f"--{name}"
    lo, hi, step = (getattr(args, f"{name}_{end}")
                    for end in ("min", "max", "step"))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{flag}-min and {flag}-max must be finite")
    if not 0.0 < step < math.inf:
        raise ConfigError(f"{flag}-step must be positive and finite")
    if hi < lo:
        raise ConfigError(f"{flag}-max must be at least {flag}-min")
    # the points that fit, allowing for float noise in span / step; clipped
    # so that a span too large for int() still reads as too long
    n = math.floor(min((hi - lo) / step, cap) + 1e-9)
    if n + 1 > cap:
        raise ConfigError(f"{flag} sweep exceeds {cap} points")
    return [lo + i * step for i in range(n + 1)]


def _rate_fn(args, channel: ChannelParams):
    if args.protocol == "wcs":
        return wcs_rate_fn(channel, q_sift=args.q_sift)
    if args.protocol == "perfect-sps":
        # the decoy bound with ideal statistics: every pulse one photon
        return dtb_rate_fn(load_source("perfect"), channel,
                           q_sift=args.q_sift)
    if args.source is None:
        raise ConfigError(f"protocol {args.protocol!r} requires --source")
    source = load_source(args.source)
    if args.protocol == "dtb":
        return dtb_rate_fn(source, channel, q_sift=args.q_sift)
    return hp_rate_fn(source, channel, t=args.t, eta_d=args.eta_d,
                      p_dc_alice=args.p_dc_alice, q_sift=args.q_sift)


def cmd_skr_curve(args) -> int:
    channel = load_channel(args.channel)
    fn = _rate_fn(args, channel)
    # the laser's rates all at once: one lockstep mu search over the grid
    curve_fn = (wcs_curve_fn(channel, q_sift=args.q_sift)
                if args.protocol == "wcs" else None)
    curve = skr_curve(fn, _sweep(args, "loss", MAX_LOSSES), curve_fn)
    write_csv(args.out, _config(args), ("loss_db", "skr"),
              map(_line, curve.points), {"mcl_db": curve.mcl_db})
    return 0


def _map_rows(gmap: GammaMap):
    """The map's CSV lines, one newline-joined string per p1 row.

    Every cell reads as ``_fmt`` would format it, but each p2 value and
    each distinct gamma is formatted once: a row starts as a copy of the
    all-NaN row, and its other cells are filled in from the table of
    distinct values.  That table is small because every gamma is a whole
    number of MCL grid steps within the 200 dB cap; values are told
    apart by their bits, so -0.0 keeps its sign, and every NaN formats
    as "nan".  Only one row's strings are held at a time (the text of a
    MAX_GRID map is 45 MB).  Of whole-map arrays only the mask and each
    cell's table index, in the narrowest dtype that holds it, are kept;
    a row's columns are found as the row is written.
    """
    g = gmap.gamma_db
    p2 = [repr(v) + "," for v in gmap.p2.tolist()]
    nan_row = [cell + "nan" for cell in p2]
    keep = ~np.isnan(g)
    bits, which = np.unique(g[keep].view(np.int64), return_inverse=True)
    which = which.astype(np.min_scalar_type(bits.size))
    texts = list(map(repr, bits.view(np.float64).tolist()))
    start = 0
    for p1, row in zip(gmap.p1.tolist(), keep):
        cols = np.flatnonzero(row)
        end = start + cols.size
        prefix = repr(p1) + ","
        cells = nan_row.copy()
        for j, k in zip(cols.tolist(), which[start:end].tolist()):
            cells[j] = p2[j] + texts[k]
        start = end
        yield prefix + ("\n" + prefix).join(cells)


def cmd_gamma_map(args) -> int:
    if args.grid > MAX_GRID:
        raise ConfigError(f"--grid must be at most {MAX_GRID}")
    gmap = gamma_map_dtb(load_channel(args.channel), eta_c=args.eta_c,
                         n=args.grid, q_sift=args.q_sift)
    footer = {"wcs_mcl_db": gmap.wcs_mcl_db}
    try:
        footer["fit_slope"], footer["fit_intercept"] = gmap.fit_zero_contour()
    except FitError:
        footer["fit_slope"] = footer["fit_intercept"] = math.nan
    write_csv(args.out, _config(args), ("p1", "p2", "gamma_db"),
              _map_rows(gmap), footer)
    return 0


def cmd_optimal_t(args) -> int:
    channel = load_channel(args.channel)
    p2s = _sweep(args, "p2", MAX_WEIGHTS)
    t_opt = optimal_bs_transmission(p2s, p_dc=args.p_dc, eta_d=args.eta_d,
                                    channel=channel, p1=args.p1)
    write_csv(args.out, _config(args), ("p2", "t_opt"),
              map(_line, zip(p2s, t_opt.tolist())))
    return 0


def cmd_gamma_vs_eta(args) -> int:
    channel = load_channel(args.channel)
    source = load_source(args.source)
    axis = args.axis.replace("-", "_")
    rows = gamma_vs_efficiency(args.protocol, axis,
                               _sweep(args, "eta", MAX_EFFICIENCIES),
                               source, channel, eta_c=args.eta_c,
                               eta_d=args.eta_d, t=args.t,
                               p_dc_alice=args.p_dc_alice, q_sift=args.q_sift)
    write_csv(args.out, _config(args), ("eta", "gamma_db"), map(_line, rows))
    return 0


def cmd_simulate(args) -> int:
    channel = load_channel(args.channel).with_loss(args.loss)
    source = load_source(args.source)
    if args.protocol == "dtb":
        own = dict(intensities={"s1": load_source(args.decoy), "s2": source},
                   intensity_weights={"s1": 0.5, "s2": 0.5})
    else:
        own = dict(source=source, t=args.t, eta_d=args.eta_d,
                   p_dc_alice=args.p_dc_alice)
    sim = SimConfig(protocol=args.protocol, n_pulses=args.n_pulses,
                    seed=args.seed, channel=channel, eta_c=args.eta_c, **own)
    report = run(sim)
    config = {"cmd": "simulate", "sim": sim.to_dict(),
              "source": args.source, "channel": args.channel}
    if args.protocol == "dtb":  # hp never loads the decoy
        config["decoy"] = args.decoy
    write_json(args.out, config, report.to_dict())
    return 0


def cmd_ingest(args) -> int:
    budget = load_budget(args.budget)
    stats = load_stats(args.stats)
    maps = [read_tomography_csv(path) for path in args.maps]
    rates = []
    for tmap in maps:
        r = gains_and_errors(tmap, budget)
        rates.append({"intensity": tmap.intensity_label,
                      "loss_db": tmap.nd_filter_db,
                      "q": r.q, "q_sigma": r.q_sigma,
                      "e": r.e, "e_sigma": r.e_sigma})
    points = skr_from_experiment(maps, stats, budget, q_sift=args.q_sift)
    write_json(args.out, _config(args), {
        "rates": rates,
        "skr_points": [dataclasses.asdict(pt) for pt in points]})
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every negative float literal as a
    value, as argparse reads -1 and -.5: -1e3, -1. and -inf, -infinity
    and -nan in any case too, so that a float flag given one reaches its
    range check instead of failing as an unknown flag.  Its subparsers
    are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$",
            re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spsqkd",
        description="Key-rate analysis for single-photon-source BB84.")
    parser.add_argument("--version", action="version",
                        version=f"spsqkd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags several subcommands take, each declared once
    shared = {
        "--out": dict(default="-",
                      help="output path, or - for stdout (default)"),
        "--channel": dict(default="channel",
                          help="channel fixture name or JSON path"),
        "--q-sift": dict(type=float, default=DEFAULT_Q_SIFT,
                         help="sifting factor in (0, 1]"),
        "--eta-c": dict(type=float, default=1.0,
                        help="source collection efficiency (default 1)"),
        "--t": dict(type=float, default=DEFAULT_T,
                    help="heralding beam-splitter transmission (hp)"),
        "--eta-d": dict(type=float, default=DEFAULT_ETA_D,
                        help="herald detector efficiency (hp)"),
        "--p-dc-alice": dict(type=float, default=None,
                             help="herald dark rate (hp; default channel p_dc)")}

    def add(p: argparse.ArgumentParser, *flags: str) -> None:
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    def sweep(p: argparse.ArgumentParser, name: str, *defaults: float) -> None:
        """``--<name>-min``, ``-max`` and ``-step``, with these defaults."""
        for end, default in zip(("min", "max", "step"), defaults):
            p.add_argument(f"--{name}-{end}", type=float, default=default)

    p = sub.add_parser("skr-curve", help="rate versus loss for one protocol")
    add(p, "--out", "--channel")
    p.add_argument("--protocol", choices=PROTOCOLS, required=True)
    p.add_argument("--source", help="source fixture name or JSON path")
    sweep(p, "loss", 0.0, 40.0, 0.5)
    add(p, "--q-sift", "--t", "--eta-d", "--p-dc-alice")
    p.set_defaults(fn=cmd_skr_curve)

    p = sub.add_parser("gamma-map", help="relative gain over (p1, p2)")
    add(p, "--out", "--channel")
    p.add_argument("--grid", type=int, default=200,
                   help=f"grid points per axis, 2 to {MAX_GRID} (default 200)")
    add(p, "--eta-c", "--q-sift")
    p.set_defaults(fn=cmd_gamma_map)

    p = sub.add_parser("optimal-t",
                       help="heralding transmission maximizing loss tolerance")
    add(p, "--out", "--channel")
    sweep(p, "p2", 0.05, 0.5, 0.05)
    p.add_argument("--p-dc", type=float, default=2e-7,
                   help="herald detector dark rate")
    add(p, "--eta-d")
    p.add_argument("--p1", type=float, default=0.0,
                   help="one-photon weight of the swept source")
    p.set_defaults(fn=cmd_optimal_t)

    p = sub.add_parser("gamma-vs-eta", help="relative gain vs efficiency")
    add(p, "--out", "--channel")
    p.add_argument("--protocol", choices=("dtb", "hp"), required=True)
    p.add_argument("--axis", choices=("eta-c", "eta-d"), required=True)
    p.add_argument("--source", required=True)
    sweep(p, "eta", 0.05, 1.0, 0.01)
    add(p, "--eta-c", "--eta-d", "--t", "--p-dc-alice", "--q-sift")
    p.set_defaults(fn=cmd_gamma_vs_eta)

    p = sub.add_parser("simulate", help="pulse-level Monte Carlo")
    add(p, "--out", "--channel")
    p.add_argument("--protocol", choices=("dtb", "hp"), required=True)
    p.add_argument("--source", required=True,
                   help="signal source fixture name or JSON path")
    p.add_argument("--decoy", default="bare-s1",
                   help="decoy source for dtb (default bare-s1)")
    p.add_argument("--loss", type=float, default=10.0)
    p.add_argument("--n-pulses", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    add(p, "--eta-c", "--t", "--eta-d", "--p-dc-alice")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("ingest", help="tomography CSVs to rates and key points")
    p.add_argument("maps", nargs="+",
                   help="tomography CSV paths (JSON sidecars alongside)")
    add(p, "--out")
    p.add_argument("--budget", default="budget",
                   help="budget fixture name or JSON path")
    p.add_argument("--stats", default="stats-bare",
                   help="per-intensity statistics fixture name or JSON path")
    add(p, "--q-sift")
    p.set_defaults(fn=cmd_ingest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the herald flags, checked where they enter
        check_herald(getattr(args, "t", DEFAULT_T),
                     getattr(args, "eta_d", DEFAULT_ETA_D),
                     p_dc_alice=getattr(args, "p_dc_alice", None))
        return args.fn(args)
    except (QkdError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
