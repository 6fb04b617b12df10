"""The benchmark's three workloads: generated inputs, jobs and output checks.

Each workload is a fixed list of jobs.  A job returns its artefact as
text; the driver in ``run.py`` times the jobs, hashes the artefacts and
compares them with ``reference.json``.  Inputs are a function of the seed
alone:

* ``gamma-map`` and ``design-sweep`` pick one of ``VARIANTS`` receivers
  (and, for the map, one collection efficiency) by ``seed % VARIANTS``.
  ``eta_bob`` barely moves the cost of a search; ``eta_c`` moves it, so
  its band is narrow.  Every variant has recorded reference artefacts.
* ``pulse-sim`` feeds the seed to the Monte Carlo generators.  Its
  artefacts are byte-checked at seed 0 only; at every seed each simulated
  gain and error rate is checked against the closed-form channel model
  within 5 sigma.

Every path handed to the CLI is a fixed relative string under ``WORK``,
so the ``# config <hash>`` line of each artefact does not depend on where
the checkout lives.  All calls into spsqkd go through module attributes
(``analysis.hp_threshold``, not a local copy) so the tracer sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from spsqkd import analysis, channel_model, cli, ingest, montecarlo, photon_source

VARIANTS = 8
WORKLOADS = ("gamma-map", "design-sweep", "pulse-sim")

# Scratch directory for generated inputs and results, relative to the
# checkout root (the benchmark runs with the root as working directory).
WORK = Path(".bench_work")
CHANNEL_ARG = str(WORK / "channel.json")

# Source fit quality bar of the saturation fixture (tests/test_photon_source).
FIT_NRMSE_MAX = 0.012
N_SIGMA = 5.0

# pulse-sim: a noisier receiver than the bundled one, so that even the
# vacuum setting collects ~150 dark clicks per ND and its 5-sigma check
# is a real test rather than a count of zero.
PULSE_CHANNEL = {"eta_bob": 0.045, "p_dc": 1e-4, "e_d": 0.033}
ND_DB = (1.0, 3.0, 5.0)
DTB_PULSES = 5_000_000
DTB_WEIGHTS = {"s0": 0.3, "s1": 0.35, "s2": 0.35}
HP_PULSES = 3_000_000
HP_ND_DB = 1.0
HP_SETTINGS = {"t": 0.5, "eta_d": 0.9, "p_dc_alice": 1e-4}


@dataclass(frozen=True)
class Job:
    """One unit of work: ``run`` returns the artefact, ``check`` lists faults."""

    name: str
    run: Callable[[], str]
    check: Callable[[str], list[str]] = lambda text: []
    byte_checked: bool = True
    cli: bool = False  # the artefact is what ``cli.main`` wrote


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ref_prefix: str | None  # key prefix in reference.json; None: no bytes
    jobs: list[Job]


_CSV_STAMP = re.compile(r"\A# spsqkd [^\n]*")
_JSON_STAMP = re.compile(r'"tool_version": "[^"]*"')


def mask_version(text: str) -> str:
    """Blank the ``# spsqkd <version>`` stamp (CSV) or ``tool_version`` (JSON)."""
    text = _CSV_STAMP.sub("# spsqkd <version>", text, count=1)
    return _JSON_STAMP.sub('"tool_version": "<version>"', text, count=1)


def digest(text: str) -> str:
    return hashlib.sha256(mask_version(text).encode()).hexdigest()


def run_cli(argv: list[str]) -> str:
    """``cli.main`` in-process with stdout captured; raises on a non-zero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"spsqkd {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def cli_job(name: str, argv: list[str], check=None,
            byte_checked: bool = True) -> Job:
    return Job(name, lambda: run_cli(argv), check or (lambda text: []),
               byte_checked, cli=True)


def _variant(seed: int) -> int:
    return seed % VARIANTS


def channel_spec(name: str, seed: int) -> dict:
    if name == "pulse-sim":
        return dict(PULSE_CHANNEL, loss_db=0.0)
    return {"loss_db": 0.0, "eta_bob": 0.038 + 0.002 * _variant(seed),
            "p_dc": 2e-7, "e_d": 0.033}


def prepare_inputs(name: str, seed: int) -> None:
    """Write the generated input files of one workload under ``WORK``."""
    WORK.mkdir(exist_ok=True)
    (WORK / "channel.json").write_text(
        json.dumps(channel_spec(name, seed), sort_keys=True, indent=1) + "\n")


def load_fixtures(name: str, seed: int) -> dict:
    """Everything the workload reads from fixture files, through the CLI loaders."""
    out = {"channel": cli.load_channel(CHANNEL_ARG)}
    if name == "design-sweep":
        out["sps1"] = cli.load_source("sps1")
        out["sps2"] = cli.load_source("sps2")
        out["saturation"] = json.loads(
            (cli.fixtures_root() / "saturation.json").read_text())
    elif name == "pulse-sim":
        out["budget"] = cli.load_budget("budget")
        out["stats"] = cli.load_stats("stats-bare")
        out["s1"] = cli.load_source("bare-s1")
        out["s2"] = cli.load_source("bare-s2")
        out["sps2"] = cli.load_source("sps2")
    return out


def build(name: str, seed: int) -> Workload:
    """Generate the inputs for ``seed`` and return the workload's jobs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    prepare_inputs(name, seed)
    fx = load_fixtures(name, seed)
    if name == "gamma-map":
        return Workload(name, seed, f"{name}/v{_variant(seed)}",
                        _gamma_map_jobs(seed))
    if name == "design-sweep":
        return Workload(name, seed, f"{name}/v{_variant(seed)}",
                        _design_sweep_jobs(fx))
    return Workload(name, seed, "pulse-sim/seed0" if seed == 0 else None,
                    _pulse_sim_jobs(seed, fx))


# -- gamma-map ---------------------------------------------------------

def _gamma_map_jobs(seed: int) -> list[Job]:
    # map cost falls ~1.7% per 0.01 of eta_c; keep the band narrow
    eta_c = 0.8 + 0.002 * _variant(seed)
    base = ["gamma-map", "--grid", "200", "--channel", CHANNEL_ARG]
    return [cli_job("map-eta_c-1", base),
            cli_job(f"map-eta_c-{eta_c:.2f}", base + ["--eta-c", repr(eta_c)])]


# -- design-sweep ------------------------------------------------------

def _lines(rows) -> str:
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


def _design_sweep_jobs(fx: dict) -> list[Job]:
    ch = fx["channel"]
    ChannelParams = channel_model.ChannelParams
    p2_grid = ["--p2-min", "0.05", "--p2-max", "0.5", "--p2-step", "0.005"]
    eta_d_grid = [0.5 + 0.01 * i for i in range(48)]
    eta_bob_grid = [0.02 + 0.001 * i for i in range(80)]
    p_dc_grid = [1e-8 * 10.0 ** (i / 20.0) for i in range(61)]
    g3_inputs = _g3_inputs()
    sat = fx["saturation"]
    s, counts = np.asarray(sat["s"]), np.asarray(sat["normalized_counts"])

    def fit() -> str:
        model, nrmse = photon_source.fit_source_model(s, counts)
        return _lines([(model.alpha_times_is, model.qy_x, nrmse)])

    def fit_check(text: str) -> list[str]:
        nrmse = float(text.split(",")[-1])
        if not nrmse <= FIT_NRMSE_MAX:
            return [f"saturation fit NRMSE {nrmse:.6g} > {FIT_NRMSE_MAX}"]
        return []

    def skr(protocol: str, source: str | None) -> Job:
        argv = ["skr-curve", "--protocol", protocol, "--channel", CHANNEL_ARG,
                "--loss-step", "0.05"]
        if source:
            argv += ["--source", source]
        return cli_job(f"skr-curve-{protocol}", argv)

    def gve(protocol: str, axis: str, source: str) -> Job:
        argv = ["gamma-vs-eta", "--protocol", protocol, "--axis", axis,
                "--source", source, "--channel", CHANNEL_ARG,
                "--eta-step", "0.001"]
        return cli_job(f"gamma-vs-eta-{protocol}-{axis}", argv)

    return [
        cli_job("optimal-t-p1-0",
                ["optimal-t", "--channel", CHANNEL_ARG] + p2_grid),
        cli_job("optimal-t-p1-0.2",
                ["optimal-t", "--channel", CHANNEL_ARG, "--p1", "0.2"] + p2_grid),
        Job("hp-threshold-eta_d", lambda: _lines(
            (e, analysis.hp_threshold(e, ch)) for e in eta_d_grid)),
        Job("wcs-mcl-eta_bob", lambda: _lines(
            (eb, analysis.wcs_mcl(ChannelParams(0.0, eb, ch.p_dc, ch.e_d)))
            for eb in eta_bob_grid)),
        Job("wcs-mcl-p_dc", lambda: _lines(
            (pd, analysis.wcs_mcl(ChannelParams(0.0, ch.eta_bob, pd, ch.e_d)))
            for pd in p_dc_grid)),
        gve("dtb", "eta-c", "sps1"),
        gve("hp", "eta-d", "sps2"),
        skr("dtb", "sps1"), skr("hp", "sps2"), skr("wcs", None),
        skr("perfect-sps", None),
        Job("fit-source-model", fit, fit_check, byte_checked=False),
        Job("extract-distribution-g3", lambda: _lines(
            photon_source.extract_distribution_g3(*x).as_tuple()
            for x in g3_inputs)),
    ]


def _g3_inputs() -> list[tuple[float, float, float]]:
    """(p0, g2, g3) moments of 640 distributions with a three-photon term."""
    out = []
    for p0 in np.linspace(0.3, 0.72, 10):
        for p2 in np.linspace(0.01, 0.08, 8):
            for p3 in np.linspace(0.001, 0.008, 8):
                d = photon_source.PhotonDistribution(
                    p0=float(p0), p1=1.0 - p0 - p2 - p3, p2=float(p2), p3=float(p3))
                out.append((float(p0), photon_source.g2_of(d), photon_source.g3_of(d)))
    return out


# -- pulse-sim ---------------------------------------------------------

def _sigma_faults(what: str, sent: int, detected: int, errors: int,
                  expected) -> list[str]:
    """Gain and error rate against the model within N_SIGMA binomial sigmas."""
    faults = []
    q, e = expected.q, expected.e
    q_sigma = math.sqrt(q * (1.0 - q) / sent)
    if abs(detected / sent - q) > N_SIGMA * q_sigma:
        faults.append(f"{what}: gain {detected / sent:.6g} vs model {q:.6g} "
                      f"beyond {N_SIGMA:g} sigma ({q_sigma:.3g})")
    if detected:
        e_sigma = math.sqrt(e * (1.0 - e) / detected)
        if abs(errors / detected - e) > N_SIGMA * e_sigma:
            faults.append(f"{what}: QBER {errors / detected:.6g} vs model "
                          f"{e:.6g} beyond {N_SIGMA:g} sigma ({e_sigma:.3g})")
    return faults


def _herald_conditional(d, t: float, eta_d: float, pda: float):
    """P(herald) and the photon-number law toward Bob given a herald.

    Exact threshold-detector bookkeeping for each split of each Fock
    term over the beam splitter, as the simulator draws it.
    """
    joint = [0.0, 0.0, 0.0]
    for n, pn in enumerate((d.p0, d.p1, d.p2)):
        for k in range(n + 1):  # k photons reflected toward the herald
            split = math.comb(n, k) * (1.0 - t) ** k * t ** (n - k)
            joint[n - k] += pn * split * (1.0 - (1.0 - eta_d) ** k * (1.0 - pda))
    p_herald = sum(joint)
    cond = photon_source.PhotonDistribution(*(j / p_herald for j in joint))
    return p_herald, cond


def _pulse_sim_jobs(seed: int, fx: dict) -> list[Job]:
    ch, budget = fx["channel"], fx["budget"]
    vacuum = photon_source.PhotonDistribution(1.0, 0.0, 0.0)
    dists = {"s0": vacuum, "s1": fx["s1"], "s2": fx["s2"]}
    # expectations are computed here, before any timing or tracing starts
    expected = {(i, k): channel_model.gain_and_qber(d, ch.with_loss(nd))
                for i, nd in enumerate(ND_DB) for k, d in dists.items()}
    p_herald, cond = _herald_conditional(
        fx["sps2"], HP_SETTINGS["t"], HP_SETTINGS["eta_d"],
        HP_SETTINGS["p_dc_alice"])
    hp_cond = channel_model.gain_and_qber(cond, ch.with_loss(HP_ND_DB))
    hp_expected = channel_model.ObservedRates(q=p_herald * hp_cond.q,
                                              e=hp_cond.e)
    byte_checked = seed == 0
    csv_paths: list[str] = []

    def dtb(i: int, nd: float) -> Job:
        rng_seed = 16 * seed + i

        def run() -> str:
            cfg = montecarlo.SimConfig(
                protocol="dtb", n_pulses=DTB_PULSES, seed=rng_seed,
                channel=ch.with_loss(nd), intensities=dists,
                intensity_weights=DTB_WEIGHTS)
            report = montecarlo.run(cfg)
            files = {}
            for tmap in ingest.maps_from_report(report, cfg, budget, nd,
                                                seed=rng_seed):
                path = WORK / f"{tmap.intensity_label.lower()}-nd{i}.csv"
                ingest.write_tomography_csv(tmap, path)
                sidecar = path.with_suffix(".csv.json")
                files[path.name] = path.read_text()
                files[sidecar.name] = sidecar.read_text()
            return json.dumps({"report": report.to_dict(), "files": files},
                              sort_keys=True, indent=1) + "\n"

        def check(text: str) -> list[str]:
            tallies = json.loads(text)["report"]["tallies"]
            faults = []
            for k in dists:
                t = tallies[k]
                faults += _sigma_faults(f"dtb {k} at {nd:g} dB", t["sent"],
                                        t["detected"], t["errors"],
                                        expected[(i, k)])
            return faults

        return Job(f"simulate-dtb-nd{nd:g}", run, check, byte_checked)

    for i in range(len(ND_DB)):
        for label in ("s0", "s1", "s2"):
            csv_paths.append(str(WORK / f"{label}-nd{i}.csv"))

    def ingest_check(text: str) -> list[str]:
        doc = json.loads(text)
        labels = sorted(r["intensity"] for r in doc["rates"])
        faults = []
        if labels != sorted(["S0", "S1", "S2"] * len(ND_DB)):
            faults.append(f"ingest rates cover {labels}")
        points = doc["skr_points"]
        if [p["loss_db"] for p in points] != list(ND_DB):
            faults.append("ingest key-rate points do not match the ND settings")
        if not all(math.isfinite(p["skr"]) and math.isfinite(p["skr_sigma"])
                   for p in points):
            faults.append("ingest key-rate point is not finite")
        return faults

    def hp_run() -> str:
        cfg = montecarlo.SimConfig(
            protocol="hp", n_pulses=HP_PULSES, seed=16 * seed + 8,
            channel=ch.with_loss(HP_ND_DB), source=fx["sps2"], **HP_SETTINGS)
        return json.dumps(montecarlo.run(cfg).to_dict(), sort_keys=True,
                          indent=1) + "\n"

    def hp_check(text: str) -> list[str]:
        t = json.loads(text)["tallies"]["s3"]
        return _sigma_faults(f"hp heralded at {HP_ND_DB:g} dB", t["sent"],
                             t["detected"], t["errors"], hp_expected)

    jobs = [dtb(i, nd) for i, nd in enumerate(ND_DB)]
    jobs.append(cli_job(
        "ingest", ["ingest", *csv_paths, "--budget", "budget",
                   "--stats", "stats-bare"], ingest_check, byte_checked))
    jobs.append(Job("simulate-hp", hp_run, hp_check, byte_checked))
    return jobs
