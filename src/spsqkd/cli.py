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
import hashlib
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

from . import __version__
from .analysis import (dtb_rate_fn, gamma_map_dtb, gamma_vs_efficiency,
                       hp_rate_fn, optimal_bs_transmission, skr_curve,
                       wcs_rate_fn)
from .channel_model import ChannelParams
from .errors import ConfigError, FitError, NoKeyError, QkdError
from .ingest import (AliceBudget, gains_and_errors, read_tomography_csv,
                     skr_from_experiment)
from .montecarlo import SimConfig, run
from .photon_source import PhotonDistribution

PROTOCOLS = ("dtb", "hp", "wcs", "perfect-sps")

# Largest gamma-map grid accepted: the lockstep search over n**2 points
# peaks near 160 MB of process memory at this size; the CSV is written one
# map row at a time, so formatting adds nothing to that peak.
MAX_GRID = 1000


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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{kind} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{kind} file {path} must hold a JSON object")
    return data


def _parse(from_dict, data: dict, where: str):
    """``from_dict(data)``, a missing or malformed field as ConfigError."""
    try:
        return from_dict(data)
    except KeyError as exc:
        raise ConfigError(f"{where} lacks required field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_source(arg: str) -> PhotonDistribution:
    return _parse(PhotonDistribution.from_dict, _load_json(arg, "source"),
                  f"source {arg!r}")


def load_channel(arg: str) -> ChannelParams:
    return _parse(ChannelParams.from_dict, _load_json(arg, "channel"),
                  f"channel {arg!r}")


def load_budget(arg: str) -> AliceBudget:
    return _parse(AliceBudget.from_dict, _load_json(arg, "budget"),
                  f"budget {arg!r}")


def load_stats(arg: str) -> dict[str, PhotonDistribution]:
    data = _load_json(arg, "stats")
    out = {}
    for label, entry in data.items():
        if not isinstance(entry, dict):
            continue  # skip annotation fields
        out[label] = _parse(PhotonDistribution.from_dict, entry,
                            f"stats {arg!r} entry {label!r}")
    if not out:
        raise ConfigError(f"stats {arg!r} defines no intensities")
    return out


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


def _sweep(args, name: str) -> list[float]:
    """Points ``--<name>-min`` to ``--<name>-max`` by ``--<name>-step``.

    The bounds must be finite with min <= max, the step positive and
    finite, and the sweep at most MAX_GRID**2 points, as many as the
    largest gamma map; all of this is checked before any list is built.
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
    # clipped so that a span too large for int() still reads as too long
    n = int(round(min((hi - lo) / step, MAX_GRID ** 2)))
    if n + 1 > MAX_GRID ** 2:
        raise ConfigError(f"{flag} sweep exceeds {MAX_GRID ** 2} points")
    return [lo + i * step for i in range(n + 1)]


def _rate_fn(args, source: PhotonDistribution | None, channel: ChannelParams):
    if args.protocol == "dtb":
        return dtb_rate_fn(source, channel, q_sift=args.q_sift)
    if args.protocol == "hp":
        return hp_rate_fn(source, channel, t=args.t, eta_d=args.eta_d,
                          p_dc_alice=args.p_dc_alice, q_sift=args.q_sift)
    if args.protocol == "wcs":
        return wcs_rate_fn(channel, q_sift=args.q_sift)
    # the same entropy bound with ideal statistics: every pulse one photon
    return dtb_rate_fn(PhotonDistribution(p0=0.0, p1=1.0, p2=0.0), channel,
                       q_sift=args.q_sift)


def cmd_skr_curve(args) -> int:
    channel = load_channel(args.channel)
    source = None
    if args.protocol in ("dtb", "hp"):
        if args.source is None:
            raise ConfigError(f"protocol {args.protocol!r} requires --source")
        source = load_source(args.source)
    fn = _rate_fn(args, source, channel)
    config = {"cmd": "skr-curve", "protocol": args.protocol,
              "source": args.source, "channel": args.channel,
              "loss": [args.loss_min, args.loss_max, args.loss_step],
              "q_sift": args.q_sift, "t": args.t, "eta_d": args.eta_d,
              "p_dc_alice": args.p_dc_alice}
    losses = _sweep(args, "loss")
    try:
        curve = skr_curve(fn, losses)
        footer = {"mcl_db": curve.mcl_db}
        rows = curve.points
    except NoKeyError:
        rows = [(loss, fn(loss)) for loss in losses]
        footer = {"mcl_db": math.nan}
    write_csv(args.out, config, ("loss_db", "skr"), map(_line, rows), footer)
    return 0


def cmd_gamma_map(args) -> int:
    if args.grid > MAX_GRID:
        raise ConfigError(f"--grid must be at most {MAX_GRID}")
    channel = load_channel(args.channel)
    config = {"cmd": "gamma-map", "channel": args.channel, "grid": args.grid,
              "eta_c": args.eta_c, "q_sift": args.q_sift}
    gmap = gamma_map_dtb(channel, eta_c=args.eta_c, n=args.grid,
                         q_sift=args.q_sift)
    # each axis value formatted once; one string of lines per map row, so
    # the text is never held whole (45 MB at MAX_GRID)
    p2 = [_fmt(v) + "," for v in gmap.p2.tolist()]
    prefixes = (_fmt(p1) + "," for p1 in gmap.p1.tolist())
    lines = ("\n".join([prefix + p2_j + g for p2_j, g
                        in zip(p2, map(_fmt, g_row.tolist()))])
             for prefix, g_row in zip(prefixes, gmap.gamma_db))
    footer = {"wcs_mcl_db": gmap.wcs_mcl_db}
    try:
        slope, intercept = gmap.fit_zero_contour()
        footer["fit_slope"] = slope
        footer["fit_intercept"] = intercept
    except FitError:
        footer["fit_slope"] = math.nan
        footer["fit_intercept"] = math.nan
    write_csv(args.out, config, ("p1", "p2", "gamma_db"), lines, footer)
    return 0


def cmd_optimal_t(args) -> int:
    channel = load_channel(args.channel)
    config = {"cmd": "optimal-t", "channel": args.channel,
              "p2": [args.p2_min, args.p2_max, args.p2_step],
              "p_dc": args.p_dc, "eta_d": args.eta_d, "p1": args.p1}
    p2s = _sweep(args, "p2")
    t_opt = optimal_bs_transmission(p2s, p_dc=args.p_dc, eta_d=args.eta_d,
                                    channel=channel, p1=args.p1)
    write_csv(args.out, config, ("p2", "t_opt"),
              map(_line, zip(p2s, t_opt.tolist())))
    return 0


def cmd_gamma_vs_eta(args) -> int:
    channel = load_channel(args.channel)
    source = load_source(args.source)
    config = {"cmd": "gamma-vs-eta", "protocol": args.protocol,
              "axis": args.axis, "source": args.source,
              "channel": args.channel,
              "eta": [args.eta_min, args.eta_max, args.eta_step],
              "eta_c": args.eta_c, "eta_d": args.eta_d, "t": args.t,
              "p_dc_alice": args.p_dc_alice, "q_sift": args.q_sift}
    axis = args.axis.replace("-", "_")
    rows = gamma_vs_efficiency(args.protocol, axis, _sweep(args, "eta"),
                               source, channel, eta_c=args.eta_c,
                               eta_d=args.eta_d, t=args.t,
                               p_dc_alice=args.p_dc_alice, q_sift=args.q_sift)
    write_csv(args.out, config, ("eta", "gamma_db"), map(_line, rows))
    return 0


def cmd_simulate(args) -> int:
    channel = load_channel(args.channel).with_loss(args.loss)
    source = load_source(args.source)
    if args.protocol == "dtb":
        decoy = load_source(args.decoy)
        sim = SimConfig(protocol="dtb", n_pulses=args.n_pulses,
                        seed=args.seed, channel=channel, eta_c=args.eta_c,
                        intensities={"s1": decoy, "s2": source},
                        intensity_weights={"s1": 0.5, "s2": 0.5})
    else:
        sim = SimConfig(protocol="hp", n_pulses=args.n_pulses,
                        seed=args.seed, channel=channel, eta_c=args.eta_c,
                        source=source, t=args.t, eta_d=args.eta_d,
                        p_dc_alice=args.p_dc_alice)
    report = run(sim)
    config = {"cmd": "simulate", "sim": sim.to_dict(),
              "source": args.source, "decoy": args.decoy,
              "channel": args.channel}
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
    config = {"cmd": "ingest", "maps": [str(p) for p in args.maps],
              "budget": args.budget, "stats": args.stats,
              "q_sift": args.q_sift}
    write_json(args.out, config, {
        "rates": rates,
        "skr_points": [{"protocol": pt.protocol, "loss_db": pt.loss_db,
                        "skr": pt.skr, "skr_sigma": pt.skr_sigma}
                       for pt in points]})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spsqkd",
        description="Key-rate analysis for single-photon-source BB84.")
    parser.add_argument("--version", action="version",
                        version=f"spsqkd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default="-",
                       help="output path, or - for stdout (default)")
        p.add_argument("--channel", default="channel",
                       help="channel fixture name or JSON path")

    p = sub.add_parser("skr-curve", help="rate versus loss for one protocol")
    common(p)
    p.add_argument("--protocol", choices=PROTOCOLS, required=True)
    p.add_argument("--source", help="source fixture name or JSON path")
    p.add_argument("--loss-min", type=float, default=0.0)
    p.add_argument("--loss-max", type=float, default=40.0)
    p.add_argument("--loss-step", type=float, default=0.5)
    p.add_argument("--q-sift", type=float, default=0.5)
    p.add_argument("--t", type=float, default=0.5,
                   help="heralding beam-splitter transmission (hp)")
    p.add_argument("--eta-d", type=float, default=0.9,
                   help="herald detector efficiency (hp)")
    p.add_argument("--p-dc-alice", type=float, default=None,
                   help="herald detector dark rate (hp; default: channel p_dc)")
    p.set_defaults(fn=cmd_skr_curve)

    p = sub.add_parser("gamma-map", help="relative gain over (p1, p2)")
    common(p)
    p.add_argument("--grid", type=int, default=200,
                   help=f"grid points per axis, 2 to {MAX_GRID} (default 200)")
    p.add_argument("--eta-c", type=float, default=1.0,
                   help="source collection efficiency in [0, 1] (default 1)")
    p.add_argument("--q-sift", type=float, default=0.5)
    p.set_defaults(fn=cmd_gamma_map)

    p = sub.add_parser("optimal-t",
                       help="heralding transmission maximizing loss tolerance")
    common(p)
    p.add_argument("--p2-min", type=float, default=0.05)
    p.add_argument("--p2-max", type=float, default=0.5)
    p.add_argument("--p2-step", type=float, default=0.05)
    p.add_argument("--p-dc", type=float, default=2e-7,
                   help="herald detector dark rate")
    p.add_argument("--eta-d", type=float, default=0.9)
    p.add_argument("--p1", type=float, default=0.0,
                   help="one-photon weight of the swept source")
    p.set_defaults(fn=cmd_optimal_t)

    p = sub.add_parser("gamma-vs-eta", help="relative gain vs efficiency")
    common(p)
    p.add_argument("--protocol", choices=("dtb", "hp"), required=True)
    p.add_argument("--axis", choices=("eta-c", "eta-d"), required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--eta-min", type=float, default=0.05)
    p.add_argument("--eta-max", type=float, default=1.0)
    p.add_argument("--eta-step", type=float, default=0.01)
    p.add_argument("--eta-c", type=float, default=1.0,
                   help="fixed collection efficiency for the eta-d sweep")
    p.add_argument("--eta-d", type=float, default=0.9,
                   help="fixed herald efficiency for the eta-c sweep (hp)")
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--p-dc-alice", type=float, default=None)
    p.add_argument("--q-sift", type=float, default=0.5)
    p.set_defaults(fn=cmd_gamma_vs_eta)

    p = sub.add_parser("simulate", help="pulse-level Monte Carlo")
    common(p)
    p.add_argument("--protocol", choices=("dtb", "hp"), required=True)
    p.add_argument("--source", required=True,
                   help="signal source fixture name or JSON path")
    p.add_argument("--decoy", default="bare-s1",
                   help="decoy source for dtb (default bare-s1)")
    p.add_argument("--loss", type=float, default=10.0)
    p.add_argument("--n-pulses", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eta-c", type=float, default=1.0)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--eta-d", type=float, default=0.9)
    p.add_argument("--p-dc-alice", type=float, default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("ingest", help="tomography CSVs to rates and key points")
    p.add_argument("maps", nargs="+",
                   help="tomography CSV paths (JSON sidecars alongside)")
    p.add_argument("--out", default="-")
    p.add_argument("--budget", default="budget",
                   help="budget fixture name or JSON path")
    p.add_argument("--stats", default="stats-bare",
                   help="per-intensity statistics fixture name or JSON path")
    p.add_argument("--q-sift", type=float, default=0.5)
    p.set_defaults(fn=cmd_ingest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (QkdError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
