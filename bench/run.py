"""spsqkd benchmark: one workload, end-to-end or traced, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload gamma-map --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

    wall_s       time of one pass over the job list, after set-up and a
                 discarded warm-up pass: the sum of each job's median
                 time over the timed passes
    setup_s      median time, over fresh interpreters, from spawn until
                 spsqkd.cli is imported and the workload's fixtures loaded
    peak_rss_mb  peak resident memory of this process (MB = 1e6 bytes)

Both times are in reference seconds: measured on one pinned CPU and
divided by the host's speed at the time, which a probe loop samples
every 10 ms (see speed.py).  The measured seconds are printed beside them.

``--trace 1`` runs the same passes untraced, then two passes with every
public function of the spsqkd modules wrapped (see tracing.py) and
reports the per-layer metrics listed in README.md.

Every job's artefact is checked (see workloads.py); a job that raises or
fails a check counts as failed.  The last line of stdout is the result
object; the lines before it are the same numbers for people, plus the
machine description.  Generated inputs, results and spans go to
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import os

# Single-threaded numerics in this process and every child, set before
# numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("QKD_FIXTURES_DIR", None)  # always the bundled fixtures

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_PASSES = 3
TRACED_PASSES = 2
SETUP_REPEATS = 5
SETUP_PROBES = 20  # probe samples on either side of a set-up child
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 60

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: name -> unit.  Spanned functions report
# <module>.<function>.{calls,self_s,total_s} from tracing.Tracer.summary.
PER_LAYER = {
    "cli.import_s": "s", "cli.import_scipy_s": "s",
    "cli.main.calls": "count", "cli.main.total_s": "s",
    "cli.write_csv.self_s": "s", "cli.bytes_out": "bytes",
    "analysis.mcl.calls": "count", "analysis.mcl.self_s": "s",
    "analysis.rate_evals": "count", "analysis.rate_evals_per_mcl": "evals/call",
    "analysis.gamma_map_dtb.total_s": "s", "analysis.nan_points": "count",
    "analysis.optimal_bs_transmission.calls": "count",
    "analysis.optimal_bs_transmission.total_s": "s",
    "analysis.hp_threshold.calls": "count", "analysis.hp_threshold.total_s": "s",
    "analysis.wcs_mcl.calls": "count", "analysis.wcs_mcl.total_s": "s",
    "analysis.gamma_vs_efficiency.total_s": "s",
    "protocols.skr_dtb.calls": "count", "protocols.skr_dtb.self_s": "s",
    "protocols.skr_hp.calls": "count", "protocols.skr_hp.self_s": "s",
    "protocols.skr_wcs_infinite_decoy.calls": "count",
    "protocols.skr_wcs_infinite_decoy.self_s": "s",
    "protocols.skr_wcs_tagging_bound.calls": "count",
    "protocols.skr_wcs_tagging_bound.self_s": "s",
    "protocols.solve_dtb.calls": "count", "protocols.solve_dtb.self_s": "s",
    "channel_model.yields.calls": "count", "channel_model.yields.self_s": "s",
    "channel_model.with_loss.calls": "count",
    "channel_model.with_loss.self_s": "s",
    "channel_model.wcs_gain_and_qber.calls": "count",
    "channel_model.wcs_gain_and_qber.self_s": "s",
    "photon_source.distributions_built": "count",
    "photon_source.apply_collection.calls": "count",
    "photon_source.apply_collection.self_s": "s",
    "photon_source.hp_transform.calls": "count",
    "photon_source.hp_transform.self_s": "s",
    "photon_source.fit_source_model.total_s": "s",
    "photon_source.extract_distribution_g3.total_s": "s",
    "montecarlo.run_dtb.total_s": "s", "montecarlo.run_hp.total_s": "s",
    "montecarlo.pulses_per_s.dtb": "1/s", "montecarlo.pulses_per_s.hp": "1/s",
    "ingest.maps_from_report.total_s": "s",
    "ingest.read_tomography_csv.calls": "count",
    "ingest.read_tomography_csv.total_s": "s",
    "ingest.skr_from_experiment.total_s": "s",
    "ingest.fallback_used": "count",
    "trace.overhead_s": "s",
}

# Counts that must be non-zero on the workload whose cost they explain.
HOME_COUNTS = {
    "gamma-map": ("cli.main.calls", "cli.bytes_out", "analysis.mcl.calls",
                  "analysis.rate_evals", "analysis.nan_points",
                  "protocols.skr_dtb.calls", "channel_model.yields.calls",
                  "channel_model.with_loss.calls",
                  "photon_source.distributions_built",
                  "photon_source.apply_collection.calls"),
    "design-sweep": ("analysis.optimal_bs_transmission.calls",
                     "analysis.hp_threshold.calls", "analysis.wcs_mcl.calls",
                     "protocols.skr_hp.calls",
                     "protocols.skr_wcs_infinite_decoy.calls",
                     "protocols.skr_wcs_tagging_bound.calls",
                     "channel_model.wcs_gain_and_qber.calls",
                     "photon_source.hp_transform.calls"),
    "pulse-sim": ("protocols.solve_dtb.calls",
                  "ingest.read_tomography_csv.calls", "cli.main.calls"),
}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# -- set-up and import breakdown (fresh interpreters) --------------------

def measure_setup(workload: str, seed: int,
                  probe: speed.Probe) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its fixtures being loaded.

    Returns the measured seconds and the reference seconds, the latter
    scaled by the host speed the probe saw just before and just after
    each child (which runs on the same CPU).
    """
    argv = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    times, ref = [], []
    for _ in range(SETUP_REPEATS):
        first = len(probe)
        for _ in range(SETUP_PROBES):
            probe.sample()
        spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(argv + [repr(spawn)], env=child_env(), cwd=ROOT,
                              check=True, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        for _ in range(SETUP_PROBES):
            probe.sample()
        times.append(float(proc.stdout.split()[-1]))
        ref.append(times[-1] * probe.speed(first, len(probe)))
    return times, ref


def parse_importtime(log: str) -> tuple[float, float]:
    """(spsqkd import s, scipy import s) from ``python -X importtime`` output.

    The first is the cumulative time of the top-level ``spsqkd*`` entries;
    the second the cumulative time of every ``scipy*`` entry not nested in
    another one, so it includes what scipy pulls in.
    """
    entries = []
    for line in log.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        raw = fields[2].rstrip()
        entries.append((len(raw) - len(raw.lstrip()), raw.strip(),
                        int(fields[0]), int(fields[1])))
    top = min(indent for indent, *_ in entries)
    spsqkd_us = sum(cum for indent, name, _, cum in entries
                    if indent == top and name.split(".")[0] == "spsqkd")
    # the log lists children before parents; walk it parent-first
    scipy_us, stack = 0, []
    for indent, name, _, cum in reversed(entries):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not inside:
            scipy_us += cum
        stack.append((indent, inside or is_scipy))
    return spsqkd_us / 1e6, scipy_us / 1e6


def measure_imports() -> tuple[list[float], list[float]]:
    argv = [sys.executable, "-X", "importtime", "-c", "import spsqkd.cli"]
    imp, sci = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, check=True,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        a, b = parse_importtime(proc.stderr)
        imp.append(a)
        sci.append(b)
    return imp, sci


# -- passes ----------------------------------------------------------------

class Runner:
    """Runs passes over a workload's jobs and checks every artefact."""

    def __init__(self, wl, references: dict) -> None:
        self.wl = wl
        self.refs = references
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, str] = {}  # job -> digest of its first output
        self.bytes_out: dict[str, int] = {}
        self.faults: list[str] = []
        # per probed pass, each job's (start, end, probes before, probes after)
        self.intervals: list[list[tuple[float, float, int, int]]] = []

    def run_pass(self, tracer=None, probe=None) -> list[float]:
        """One pass over the jobs; returns each job's wall time.

        With a running ``probe``, each job's interval and probe positions
        are kept in ``self.intervals`` for ``reference_passes``.
        """
        times = []
        if probe is not None:
            self.intervals.append([])
        for job in self.wl.jobs:
            self.attempted += 1
            first = len(probe) if probe is not None else 0
            t0 = perf_counter()
            try:
                if tracer is None:
                    text = job.run()
                else:
                    with tracer.span("bench.job"):
                        text = job.run()
            except Exception:  # a job that raises counts as failed
                text, error = None, traceback.format_exc()
            t1 = perf_counter()
            times.append(t1 - t0)
            if probe is not None:
                self.intervals[-1].append((t0, t1, first, len(probe)))
            if text is None:
                self._fault(job.name, "raised\n" + error)
                continue
            problems = self._check(job, text)
            if problems:
                self._fault(job.name, "; ".join(problems))
        return times

    def _check(self, job, text: str) -> list[str]:
        import workloads
        problems = []
        d = workloads.digest(text)
        first = self.first.setdefault(job.name, d)
        if d != first:
            problems.append("output differs from this run's first pass")
        if job.byte_checked:
            key = f"{self.wl.ref_prefix}/{job.name}"
            ref = self.refs.get(key)
            if ref is None:
                problems.append(f"no reference output {key}")
            elif ref["sha256"] != d:
                problems.append(f"output differs from reference {key}")
                self._keep(job.name, text)
        try:
            problems += job.check(text)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"artefact unreadable: {exc!r}")
        self.bytes_out[job.name] = len(text.encode())
        return problems

    def _fault(self, job: str, message: str) -> None:
        self.failed += 1
        self.faults.append(f"{job}: {message}")
        print(f"FAILED {self.wl.name} {job}: {message}", file=sys.stderr)

    def _keep(self, job: str, text: str) -> None:
        import workloads
        path = workloads.WORK / f"mismatch-{self.wl.name}-{job}.txt"
        path.write_text(text)
        print(f"  mismatching output kept in {path}", file=sys.stderr)

    def timed_passes(self, budget_s: float, minimum: int,
                     probe=None) -> list[list[float]]:
        """Passes until the next one would overrun ``budget_s`` (at least ``minimum``)."""
        passes: list[list[float]] = []
        t0 = perf_counter()
        while True:
            passes.append(self.run_pass(probe=probe))
            elapsed = perf_counter() - t0
            if (len(passes) >= minimum
                    and elapsed * (len(passes) + 1) / len(passes) > budget_s):
                return passes


def reference_passes(runner: Runner, probe: speed.Probe) -> list[list[float]]:
    """Each probed pass's job times in reference seconds (see speed.py)."""
    return [[probe.reference_time(*iv) for iv in p] for p in runner.intervals]


def median_pass(passes: list[list[float]]) -> float:
    """Sum over jobs of each job's median over the passes."""
    return sum(statistics.median(job) for job in zip(*passes))


def best_pass(passes: list[list[float]]) -> float:
    """Sum over jobs of each job's fastest pass.

    The work of a pass is deterministic, so time above a job's fastest
    run is interference from other tenants of the host (see README.md).
    """
    return sum(min(job) for job in zip(*passes))


# -- machine description ---------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "git_sha": _git_sha(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


# -- modes -----------------------------------------------------------------

def end_to_end(wl, runner: Runner, seconds: int) -> tuple[dict, dict]:
    probe = speed.Probe()
    setup, setup_ref = measure_setup(wl.name, wl.seed, probe)
    runner.run_pass()  # warm-up, discarded
    with probe:
        passes = runner.timed_passes(seconds, MIN_PASSES, probe)
    ref = reference_passes(runner, probe)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {"wall_s": median_pass(ref),
               "setup_s": statistics.median(setup_ref),
               "peak_rss_mb": rss_mb}
    samples = {"wall_s": [sum(p) for p in ref], "setup_s": setup_ref,
               "peak_rss_mb": [rss_mb],
               "measured_wall_s": [sum(p) for p in passes],
               "measured_setup_s": setup,
               "host_speed": [probe.speed(0, len(probe))],
               "job_s": passes, "reference_job_s": ref}
    return metrics, samples


def traced(wl, runner: Runner,
           seconds: int) -> tuple[dict, dict, list[str], bool]:
    import tracing
    import workloads
    imp, sci = measure_imports()
    runner.run_pass()  # warm-up, discarded
    plain = runner.timed_passes(seconds / 2, 2)
    tracer = tracing.Tracer()
    summaries, passes, fallbacks = [], [], []
    tracer.install()
    try:
        for _ in range(TRACED_PASSES):
            begin = tracer.mark()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                passes.append(runner.run_pass(tracer))
            summaries.append(tracer.summary(begin, tracer.mark()))
            fallbacks.append(tracing.count_fallback_warnings(caught))
    finally:
        tracer.remove()
    tracer.save(workloads.WORK / f"spans-{wl.name}.npz")

    notes = []
    counts = [{k: v for k, v in s.items() if not k.endswith("_s")}
              for s in summaries]
    counts_repeat = counts[0] == counts[1] and fallbacks[0] == fallbacks[1]
    if not counts_repeat:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        notes.append(f"counts differ between traced passes: {diff}")

    def mean(key: str) -> float:
        return statistics.fmean(s[key] for s in summaries)

    s0 = summaries[0]
    metrics = {"cli.import_s": statistics.median(imp),
               "cli.import_scipy_s": statistics.median(sci),
               "cli.bytes_out": sum(runner.bytes_out.get(j.name, 0)
                                    for j in wl.jobs if j.cli),
               "analysis.rate_evals_per_mcl": (
                   s0["analysis.rate_evals_in_mcl"] / s0["analysis.mcl.calls"]
                   if s0["analysis.mcl.calls"] else 0.0),
               "ingest.fallback_used": fallbacks[0],
               "trace.overhead_s": best_pass(passes) - best_pass(plain)}
    for kind in ("dtb", "hp"):
        busy = mean(f"montecarlo.run_{kind}.total_s")
        metrics[f"montecarlo.pulses_per_s.{kind}"] = (
            mean(f"montecarlo.pulses.{kind}") / busy if busy else 0.0)
    for name, unit in PER_LAYER.items():
        if name in metrics:
            continue
        metrics[name] = s0[name] if unit == "count" else mean(name)
    for name in HOME_COUNTS[wl.name]:
        if not metrics[name]:
            notes.append(f"warning: {name} is zero on its home workload")
    samples = {"untraced_wall_s": [sum(p) for p in plain],
               "traced_wall_s": [sum(p) for p in passes],
               "import_s": imp, "import_scipy_s": sci,
               "job_s": plain, "traced_job_s": passes}
    return metrics, samples, notes, counts_repeat


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spsqkd" / "__init__.py").is_file():
        return _fail(f"no spsqkd sources under {SRC}")
    ref_path = BENCH / "reference.json"
    if not ref_path.is_file():
        return _fail(f"missing {ref_path}")
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import spsqkd
    if Path(spsqkd.__file__).resolve().parent != SRC / "spsqkd":
        return _fail(f"spsqkd imported from {spsqkd.__file__}, not {SRC}")
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"--workload must be one of {workloads.WORKLOADS}")
    if args.seed < 0 or args.seconds < 1:
        return _fail("--seed must be >= 0 and --seconds >= 1")

    references = json.loads(ref_path.read_text())["outputs"]
    speed.pin_one_cpu()
    wl = workloads.build(args.workload, args.seed)
    runner = Runner(wl, references)
    notes: list[str] = []
    counts_repeat = True
    if args.trace:
        metrics, samples, notes, counts_repeat = traced(wl, runner,
                                                        args.seconds)
        units = PER_LAYER
    else:
        metrics, samples = end_to_end(wl, runner, args.seconds)
        units = END_TO_END
    correct = runner.failed == 0 and counts_repeat
    env = environment()

    print(f"# workload {wl.name}  seed {wl.seed}  references "
          f"{wl.ref_prefix or 'none (statistical checks only)'}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        n = len(samples.get(name, ()))
        how = (f"sum of per-job medians over {n} passes" if name == "wall_s"
               else f"median of {n}")
        tail = f"  ({how})" if n > 1 else ""
        print(f"{name:44s} {metrics[name]!r:>24} {unit}{tail}")
    for key, values in samples.items():
        if not key.endswith("job_s"):
            print(f"# samples {key}: " + ", ".join(f"{v:.4f}" for v in values))
    print(f"{'failed_ratio':44s} {runner.failed / runner.attempted!r:>24} 1"
          f"  ({runner.failed} of {runner.attempted} jobs)")
    for note in notes:
        print(f"# {note}")

    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": metrics[k], "unit": unit}
                          for k, unit in units.items()}}
    record = dict(result, workload=wl.name, seed=wl.seed, trace=args.trace,
                  samples=samples, env=env, faults=runner.faults, notes=notes)
    (workloads.WORK / f"result-{wl.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
