"""Pulse-level stochastic emulation of both transmitter protocols.

Serves as an independent check on the closed-form gain/error model: each
pulse draws a photon number, photons are thinned binomially through
collection and channel, Bob's two threshold detectors click on photons or
dark counts, and tallies accumulate per intensity.  Reports carry raw
integer tallies only; the empirical gain and error rate are derived from
them.

Error bookkeeping is matched-basis: every pulse is scored as if the bases
agreed (each arriving photon lands on the wrong detector with probability
e_d, double clicks resolve to a random bit), while basis sifting is
tracked separately as an independent halving.  This matches the analytic
model, whose error rates are defined on the matched-basis subsample.

Pulses are processed in fixed-size shards, each with a child generator
spawned as the loop reaches it, and tallies merged by summation, so a
report depends only on (seed, n_pulses), never on scheduling.  Shards take
the draws of ``choice`` and whole-array ``binomial``, both computed in
numpy: a pick counts the entries of ``choice``'s table (running sum of the
normalised weights, scaled to end at 1) that its uniform reaches.  A
thinning runs numpy's binomial inversion on one uniform per photon number
n > 0 (n = 0 binomials draw nothing), and replays ``binomial`` itself for
the batch in which numpy would draw a uniform again.  A uniform that
nothing reads is skipped, never drawn in another order: PCG64's
``advance`` jumps over a vacuum intensity's photon-number uniforms and,
where double clicks are sparse, to each one's coin and past the rest.
Tallies are counted over the detected pulses only.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .channel_model import ChannelParams, transmittance
from .errors import ConfigError
from .photon_source import PhotonDistribution, check_collection
from .protocols import (DEFAULT_ETA_D, DEFAULT_T, check_herald,
                        herald_dark_rate)

# Pulses per RNG shard; fixed so reports are independent of worker layout.
SHARD_SIZE = 1_000_000
# Largest pulse count a run takes: at about 43 M pulses/s (a 5 M-pulse dtb
# run in 0.12 s, x86-64 Linux) a run of this size takes about 6.5 hours.
MAX_PULSES = 10**12
# Elements per batch of ``_thin``'s inversion, which bounds its temporaries;
# consecutive ``random`` calls draw what one call over all would.
_CHUNK = 1 << 16
# ``_draw_at`` jumps to each value it reads while they number at most 2^-12
# of the array.  A jump costs about what drawing 400 values does (1 us), so
# at the bound the jumps take about a tenth of drawing the array.
_SPARSE_SHIFT = 12

_PROTOCOLS = ("dtb", "hp")


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Configuration of one simulation run.

    For the decoy protocol, ``intensities`` maps labels to photon
    distributions and ``intensity_weights`` gives the per-pulse selection
    probabilities.  For heralded purification, ``source`` is the single
    emission distribution and the beam-splitter parameters apply.
    """

    protocol: str
    n_pulses: int
    seed: int
    channel: ChannelParams
    eta_c: float = 1.0
    intensities: dict[str, PhotonDistribution] = field(default_factory=dict)
    intensity_weights: dict[str, float] = field(default_factory=dict)
    source: PhotonDistribution | None = None
    t: float = DEFAULT_T
    eta_d: float = DEFAULT_ETA_D
    p_dc_alice: float | None = None

    def __post_init__(self) -> None:
        if self.protocol not in _PROTOCOLS:
            raise ConfigError(f"protocol must be one of {_PROTOCOLS}")
        for name, low in (("n_pulses", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:  # so not a bool
                raise ConfigError(
                    f"{name} must be an integer >= {low}, not {value!r}")
        if self.n_pulses > MAX_PULSES:
            raise ConfigError(f"n_pulses must be at most {MAX_PULSES}, "
                              f"not {self.n_pulses}")
        try:  # the package's collection and herald rules, as ConfigError
            check_collection(self.eta_c)
            if self.protocol == "hp":
                check_herald(self.t, self.eta_d, p_dc_alice=self.p_dc_alice)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.protocol == "dtb":
            if not self.intensities:
                raise ConfigError("dtb runs need at least one intensity")
            if set(self.intensities) != set(self.intensity_weights):
                raise ConfigError("intensity labels and weights must match")
            weights = self.intensity_weights.values()
            if not all(0.0 <= w < math.inf for w in weights):
                raise ConfigError("intensity weights must be finite and >= 0")
            total = sum(weights)
            if abs(total - 1.0) > 1e-9:
                raise ConfigError(f"intensity weights sum to {total}, not 1")
        elif self.source is None:
            raise ConfigError("hp runs need a source distribution")
        dists = [self.source] if self.protocol == "hp" else self.intensities.values()
        if any(min(d.as_tuple()) < 0.0 for d in dists):
            raise ConfigError("photon-number probabilities must be >= 0")

    def to_dict(self) -> dict:
        out = {"protocol": self.protocol, "n_pulses": self.n_pulses,
               "seed": self.seed, "channel": self.channel.to_dict(),
               "eta_c": self.eta_c}
        if self.protocol == "dtb":
            out["intensities"] = {k: list(v.as_tuple())
                                  for k, v in self.intensities.items()}
            out["intensity_weights"] = dict(self.intensity_weights)
        else:
            out["source"] = list(self.source.as_tuple())
            out["t"] = self.t
            out["eta_d"] = self.eta_d
            out["p_dc_alice"] = self.p_dc_alice
        return out


@dataclass(slots=True)
class IntensityTally:
    sent: int = 0
    detected: int = 0
    errors: int = 0
    sifted: int = 0

    def add(self, mine: np.ndarray, error: np.ndarray,
            sifted: np.ndarray) -> None:
        """Count the detections flagged in ``mine``, and their errors and
        sifts, from the receiver's flags over the same detections."""
        self.detected += int(np.count_nonzero(mine))
        self.errors += int(np.count_nonzero(error & mine))
        self.sifted += int(np.count_nonzero(sifted & mine))


@dataclass(slots=True)
class SimReport:
    """Integer tallies of one run plus derived empirical rates."""

    protocol: str
    seed: int
    n_pulses: int
    tallies: dict[str, IntensityTally]
    heralds: int = 0
    herald_and_one: int = 0
    herald_and_two: int = 0

    def q(self, label: str) -> float:
        """Empirical gain: detections per sent pulse of this intensity."""
        t = self.tallies[label]
        return t.detected / t.sent if t.sent else 0.0

    def e(self, label: str) -> float:
        """Empirical matched-basis error fraction among detections."""
        t = self.tallies[label]
        return t.errors / t.detected if t.detected else 0.0

    def to_dict(self) -> dict:
        """The report's fields as plain data; a dtb run has no herald counts."""
        out = asdict(self)
        if self.protocol == "dtb":
            del out["heralds"], out["herald_and_one"], out["herald_and_two"]
        return out


def _shards(n_pulses: int, seed: int):
    root = np.random.SeedSequence(seed)  # spawn(1) k times == spawn(k)
    for done in range(0, n_pulses, SHARD_SIZE):
        yield (min(SHARD_SIZE, n_pulses - done),
               np.random.default_rng(root.spawn(1)[0]))


def _with_buffer(config: SimConfig):
    """``_shards`` of the run, each with room for one uniform per pulse:
    the front of one buffer."""
    buf = np.empty(min(SHARD_SIZE, config.n_pulses))
    for m, rng in _shards(config.n_pulses, config.seed):
        yield m, rng, buf[:m]


def _cdf(weights) -> np.ndarray:
    """``choice``'s table for these weights, less its entries equal to 1."""
    p = np.asarray(weights, dtype=float)
    cdf = np.cumsum(p / p.sum())
    cdf /= cdf[-1]
    return cdf[cdf < 1.0]


def _pick(u: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")`` as int8: ``choice``'s picks."""
    out = np.zeros(u.shape, dtype=np.int8)
    for c in cdf:
        out += u >= c
    return out


def _inversion_table(n_max: int, p: float) -> np.ndarray:
    """Row x, column n: numpy's P(X = x) for n trials at p <= 1/2.

    The terms of ``random_binomial_inversion`` in numpy's
    ``distributions.c``, computed with its float operations in its order;
    inf past n, where no uniform passes.
    """
    q = 1.0 - p
    table = np.full((n_max + 1, n_max + 1), np.inf)
    for n in range(1, n_max + 1):
        px = math.exp(n * math.log(q))
        for x in range(n + 1):
            table[x, n] = px
            px = (n - x) * p * px / ((x + 1) * q)
    return table


def _thin(rng: np.random.Generator, n: np.ndarray, p: float) -> np.ndarray:
    """``rng.binomial(n, p)`` in place, drawing only where n > 0.

    For 0 < p <= 1 and n <= 10, numpy's binomial is an inversion: one
    uniform per element, from which the table's terms for its n are
    subtracted while it exceeds them.  This does the same compares and
    subtractions over batches of ``_CHUNK`` elements.  A uniform that
    passes all n + 1 terms (about 1e-15 per element) makes numpy draw
    again, so that batch replays ``rng.binomial`` from its saved state.
    """
    idx = np.flatnonzero(n > 0)
    n_max = int(n.max(initial=0))
    if not 0.0 < p <= 1.0 or n_max > 10:
        n[idx] = rng.binomial(n[idx], p)
        return n
    flip = p > 0.5  # numpy inverts at 1 - p and returns n - X
    steps = _inversion_table(n_max, 1.0 - p if flip else p)
    for at in range(0, idx.size, _CHUNK):
        j = idx[at:at + _CHUNK]
        k = n[j].astype(np.intp)
        state = rng.bit_generator.state
        u = rng.random(k.size)
        x = np.zeros(k.size, dtype=np.int8)
        for row in steps:
            px = row[k]
            x += u > px
            u -= px
        if (x > k).any():
            rng.bit_generator.state = state
            n[j] = rng.binomial(k, p)
        else:
            n[j] = k - x if flip else x
    return n


def _draw_at(rng: np.random.Generator, idx: np.ndarray, u: np.ndarray):
    """``rng.random(u.size)[idx]`` for increasing ``idx``, and ``rng`` left
    where that call leaves it.

    Where ``idx`` is sparse, PCG64 jumps to each read value (``advance``
    and one ``random`` give the value ``random`` would draw there) and
    past the rest; else the whole array is drawn into ``u``.
    """
    if idx.size > u.size >> _SPARSE_SHIFT:
        return rng.random(out=u)[idx]
    out, at = np.empty(idx.size), 0
    for k, i in enumerate(idx.tolist()):
        rng.bit_generator.advance(i - at)
        out[k], at = rng.random(), i + 1
    rng.bit_generator.advance(u.size - at)
    return out


def _receive(rng: np.random.Generator, sent: np.ndarray, eta: float,
             channel: ChannelParams, u: np.ndarray):
    """Bob's side of a shard: the detected pulses' sorted indices, and
    which of them are errors and which are sifted.

    ``sent`` (photons per pulse) is thinned in place by the channel
    transmittance ``eta``.  Each arriving photon lands on the wrong-bit
    detector with probability e_d.  Per-detector dark probability d
    solves 1-(1-d)^2 = p_dc so the empirical vacuum yield matches the
    analytic Y_0 = p_dc exactly.  Double clicks resolve to a random bit,
    and each detection is sifted with probability 1/2.  ``u`` is scratch
    space for one uniform per pulse.
    """
    arrived = _thin(rng, sent, eta)
    wrong = _thin(rng, arrived.copy(), channel.e_d)
    d_each = 1.0 - math.sqrt(1.0 - channel.p_dc)
    click_r = (arrived > wrong) | (rng.random(out=u) < d_each)
    click_w = (wrong > 0) | (rng.random(out=u) < d_each)
    detected = np.flatnonzero(click_r | click_w)
    error = click_w[detected]
    both = np.flatnonzero(click_r[detected] & error)
    # a double click is an error where its coin is below 1/2
    error[both[_draw_at(rng, detected[both], u) >= 0.5]] = False
    return detected, error, rng.random(out=u)[detected] < 0.5


def run_dtb(config: SimConfig) -> SimReport:
    """Simulate the decoy-state transmitter pulse by pulse."""
    if config.protocol != "dtb":
        raise ConfigError("run_dtb needs a dtb config")
    labels = sorted(config.intensities)
    pick_label = _cdf([config.intensity_weights[k] for k in labels])
    pick_n = [_cdf(config.intensities[k].as_tuple()) for k in labels]
    eta = transmittance(config.channel)
    tallies = {k: IntensityTally() for k in labels}

    for m, rng, u in _with_buffer(config):
        chosen = _pick(rng.random(out=u), pick_label)
        # one choice per intensity, in label order, is one random(m) in slices
        n = np.zeros(m, dtype=np.int8)
        for k, cdf in enumerate(pick_n):
            pos = np.flatnonzero(chosen == k)
            tallies[labels[k]].sent += pos.size
            if cdf.size:
                n[pos] = _pick(rng.random(out=u[:pos.size]), cdf)
            else:  # a vacuum reads no uniform of its slice
                rng.bit_generator.advance(pos.size)
        if config.eta_c < 1.0:
            _thin(rng, n, config.eta_c)
        detected, error, sifted = _receive(rng, n, eta, config.channel, u)
        chosen = chosen[detected]
        for k, t in enumerate(tallies.values()):
            t.add(chosen == k, error, sifted)
    return SimReport(protocol="dtb", seed=config.seed,
                     n_pulses=config.n_pulses, tallies=tallies)


def run_hp(config: SimConfig) -> SimReport:
    """Simulate the heralded-purification transmitter pulse by pulse.

    A pulse enters the key only when the herald detector clicked, so the
    per-intensity tally counts herald-gated detections: Bob's clicks on
    un-heralded pulses are discarded, mirroring the sifting rule, and
    ``q``/``e`` are the heralded gain and its matched-basis error.
    """
    if config.protocol != "hp":
        raise ConfigError("run_hp needs an hp config")
    pda = herald_dark_rate(config.p_dc_alice, config.channel)
    pick_n = _cdf(config.source.as_tuple())
    eta = transmittance(config.channel)
    tally = IntensityTally()
    heralds = herald_and_one = herald_and_two = 0

    for m, rng, u in _with_buffer(config):
        n = _pick(rng.random(out=u), pick_n)
        if config.eta_c < 1.0:
            _thin(rng, n, config.eta_c)
        reflected = _thin(rng, n.copy(), 1.0 - config.t)
        n -= reflected  # the photons toward Bob
        herald = _thin(rng, reflected, config.eta_d) > 0
        herald |= rng.random(out=u) < pda
        heralds += int(np.count_nonzero(herald))
        herald_and_one += int(np.count_nonzero(herald & (n == 1)))
        herald_and_two += int(np.count_nonzero(herald & (n == 2)))
        detected, error, sifted = _receive(rng, n, eta, config.channel, u)
        tally.sent += m
        tally.add(herald[detected], error, sifted)
    return SimReport(protocol="hp", seed=config.seed,
                     n_pulses=config.n_pulses, tallies={"s3": tally},
                     heralds=heralds, herald_and_one=herald_and_one,
                     herald_and_two=herald_and_two)


def run(config: SimConfig) -> SimReport:
    return run_dtb(config) if config.protocol == "dtb" else run_hp(config)


def empirical_g2(photon_numbers: np.ndarray) -> float:
    """Second-order correlation at zero delay from a pulse stream: the
    photon-number-resolved moment ratio <n(n-1)> / <n>^2, which a
    split-detector measurement approaches in the low-efficiency limit."""
    n = np.asarray(photon_numbers)
    if n.size == 0:
        raise ValueError("empty stream")
    mean = n.mean()
    if mean == 0.0:
        raise ValueError("stream has no photons; g2 undefined")
    return float((n * (n - 1)).mean() / mean ** 2)
