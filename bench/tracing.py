"""Spans and counters around the public functions of each spsqkd module.

The program is measured from outside: ``Tracer.install`` replaces every
binding through which callers reach a traced function -- the defining
module's attribute and each ``from .x import f`` copy in the other spsqkd
modules -- with a wrapper, and ``Tracer.remove`` puts the originals back.
Wrapping only the defining module would leave calls made through the
imported names (``spsqkd.analysis.skr_dtb``, ``spsqkd.protocols.yields``,
...) uncounted.

A span is (name, start, end, parent).  Spans live in compact ``array``
buffers (22 bytes each) so a gamma-map pass, about a million spans,
stays small; ``save`` writes them out once the run is over.  Self
time is a span's duration minus the durations of its direct children,
which never overlap in this single-threaded program.
"""

from __future__ import annotations

import contextlib
import math
import sys
import warnings
from array import array
from time import perf_counter

import numpy as np

# (module, attribute) pairs recorded as spans; "Class.method" names a method.
SPANNED = (
    ("cli", "main"), ("cli", "write_csv"),
    ("analysis", "mcl"), ("analysis", "gamma_map_dtb"),
    ("analysis", "optimal_bs_transmission"), ("analysis", "hp_threshold"),
    ("analysis", "wcs_mcl"), ("analysis", "gamma_vs_efficiency"),
    ("protocols", "skr_dtb"), ("protocols", "skr_hp"),
    ("protocols", "skr_wcs_infinite_decoy"),
    ("protocols", "skr_wcs_tagging_bound"), ("protocols", "solve_dtb"),
    ("channel_model", "yields"), ("channel_model", "ChannelParams.with_loss"),
    ("channel_model", "wcs_gain_and_qber"),
    ("photon_source", "apply_collection"), ("photon_source", "hp_transform"),
    ("photon_source", "fit_source_model"),
    ("photon_source", "extract_distribution_g3"),
    ("montecarlo", "run_dtb"), ("montecarlo", "run_hp"),
    ("ingest", "maps_from_report"), ("ingest", "read_tomography_csv"),
    ("ingest", "skr_from_experiment"),
)

# Factories whose returned loss -> rate closures are counted per call.
RATE_FACTORIES = ("dtb_rate_fn", "hp_rate_fn", "wcs_rate_fn",
                  "wcs_tagged_rate_fn")

COUNTS = ("analysis.rate_evals", "analysis.rate_evals_in_mcl",
          "analysis.nan_points", "photon_source.distributions_built",
          "montecarlo.pulses.dtb", "montecarlo.pulses.hp")


def _metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _nan_points_of_map(gmap) -> int:
    """NaN entries on the simplex p1 + p2 <= 1 (points without key)."""
    inside = gmap.p1[:, None] + gmap.p2[None, :] <= 1.0 + 1e-12
    return int(np.count_nonzero(np.isnan(gmap.gamma_db) & inside))


class Tracer:
    """Span recorder and call counter for one benchmark run."""

    def __init__(self) -> None:
        self.names = [_metric_name(m, a) for m, a in SPANNED] + ["bench.job"]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("h")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._restore: list[tuple[object, str, object]] = []
        self._mcl_id = self._ids["analysis.mcl"]

    # -- recording ---------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around one job."""
        idx = self._open(self._ids[name])
        try:
            yield
        finally:
            self._close(idx, perf_counter())

    def _open(self, sid: int) -> int:
        idx = len(self.name)
        self.name.append(sid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, t_end: float) -> None:
        self.end[idx] = t_end
        self._stack.pop()

    def _spanned(self, fn, name: str, post=None):
        sid = self._ids[name]
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, perf_counter())
            if post is not None:
                post(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rate_factory(self, factory):
        tracer = self

        def make(*args, **kwargs):
            rate = factory(*args, **kwargs)

            def counted(loss_db):
                tracer.counts["analysis.rate_evals"] += 1
                top = tracer._stack[-1]
                if top >= 0 and tracer.name[top] == tracer._mcl_id:
                    tracer.counts["analysis.rate_evals_in_mcl"] += 1
                return rate(loss_db)
            return counted

        make.__wrapped__ = factory
        return make

    def _post_init_counter(self, post_init):
        counts = self.counts

        def counted(obj):
            counts["photon_source.distributions_built"] += 1
            return post_init(obj)

        counted.__wrapped__ = post_init
        return counted

    def _count_pulses(self, key: str):
        def post(args, kwargs, result):
            self.counts[key] += result.n_pulses
        return post

    def _count_map_nans(self, args, kwargs, result) -> None:
        self.counts["analysis.nan_points"] += _nan_points_of_map(result)

    def _count_curve_nans(self, args, kwargs, result) -> None:
        self.counts["analysis.nan_points"] += sum(
            1 for _, g in result if math.isnan(g))

    # -- installing --------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the traced functions in all spsqkd modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "spsqkd" or n.startswith("spsqkd.")]
        post = {"analysis.gamma_map_dtb": self._count_map_nans,
                "analysis.gamma_vs_efficiency": self._count_curve_nans,
                "montecarlo.run_dtb": self._count_pulses("montecarlo.pulses.dtb"),
                "montecarlo.run_hp": self._count_pulses("montecarlo.pulses.hp")}
        replace = {}
        for module, attr in SPANNED:
            mod = sys.modules[f"spsqkd.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                name = _metric_name(module, attr)
                self._set(cls, meth, self._spanned(orig, name, post.get(name)))
                continue
            orig = getattr(mod, attr)
            name = _metric_name(module, attr)
            replace[id(orig)] = (orig, self._spanned(orig, name, post.get(name)))
        analysis = sys.modules["spsqkd.analysis"]
        for attr in RATE_FACTORIES:
            orig = getattr(analysis, attr)
            replace[id(orig)] = (orig, self._rate_factory(orig))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, key, hit[1])
        dist = sys.modules["spsqkd.photon_source"].PhotonDistribution
        self._set(dist, "__post_init__",
                  self._post_init_counter(dist.__dict__["__post_init__"]))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        """Put every original binding back, newest first."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- reducing ----------------------------------------------------

    def mark(self) -> tuple[int, dict[str, int]]:
        """Position and counter snapshot at a pass boundary."""
        return len(self.name), dict(self.counts)

    def summary(self, begin: tuple[int, dict], end: tuple[int, dict]) -> dict:
        """Per-function calls/self/total and counters between two marks."""
        names = np.frombuffer(self.name, dtype=np.int16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=dur.size)
        self_time = dur - covered
        lo, hi = begin[0], end[0]
        k = len(self.names)
        calls = np.bincount(names[lo:hi], minlength=k)
        total = np.bincount(names[lo:hi], weights=dur[lo:hi], minlength=k)
        selfs = np.bincount(names[lo:hi], weights=self_time[lo:hi], minlength=k)
        out = {}
        for i, n in enumerate(self.names):
            out[f"{n}.calls"] = int(calls[i])
            out[f"{n}.total_s"] = float(total[i])
            out[f"{n}.self_s"] = float(selfs[i])
        for key in COUNTS:
            out[key] = end[1][key] - begin[1][key]
        return out

    def save(self, path) -> None:
        """Write every span recorded so far as an uncompressed .npz."""
        np.savez(path, names=np.asarray(self.names),
                 name=np.frombuffer(self.name, dtype=np.int16),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end))


def count_fallback_warnings(caught: list[warnings.WarningMessage]) -> int:
    """Vacuum-fallback warnings raised by ingest among ``caught``."""
    return sum(1 for w in caught if "no vacuum (S0) map" in str(w.message))
