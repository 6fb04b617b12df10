"""Photon-number statistics of cascade single-photon sources.

Everything here lives on a truncated Fock basis {0, 1, 2, 3}: a pulsed
source is described by the probabilities ``p0..p3`` of emitting that many
photons per excitation cycle.  The module covers

* the two-level excitation ladder of a biexciton-exciton cascade driven at
  a dimensionless pump power,
* moment observables (mean photon number, second- and third-order
  zero-delay autocorrelations) and their inversion back to a distribution,
* linear-loss transforms: collection efficiency and the heralding
  beam-splitter transform used by the purification scheme,
* saturation-curve fitting for calibrating the pump axis.

Probabilities are plain floats; distributions are immutable dataclasses
validated on construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .errors import FitError, InfeasibleObservablesError
from .search import golden_max

# Construction tolerances: distributions arriving from JSON round-trips may
# be off at the last digit, transforms must conserve probability far more
# tightly than this.
_SUM_TOL = 1e-9
_NEG_TOL = 1e-12

# Convergence targets for the moment-inversion solvers.
_ROOT_TOL = 1e-12
_MAX_NEWTON_ITER = 200


@dataclass(frozen=True, slots=True)
class PhotonDistribution:
    """Per-pulse photon-number probabilities on the truncated basis.

    >>> d = PhotonDistribution(p0=0.5, p1=0.4, p2=0.1)
    >>> round(mean_photon_number(d), 12)
    0.6
    """

    p0: float
    p1: float
    p2: float
    p3: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (("p0", self.p0), ("p1", self.p1),
                            ("p2", self.p2), ("p3", self.p3)):
            if not math.isfinite(value) or value < -_NEG_TOL or value > 1.0 + _NEG_TOL:
                raise ValueError(f"{name}={value!r} is not a probability")
        total = self.p0 + self.p1 + self.p2 + self.p3
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p0, self.p1, self.p2, self.p3)

    def to_dict(self) -> dict[str, float]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PhotonDistribution":
        """Parse ``p0``..``p3``; an absent weight reads as 0."""
        return cls(**{k: float(data.get(k, 0.0))
                      for k in ("p0", "p1", "p2", "p3")})


def check_distribution_array(probs: np.ndarray) -> np.ndarray:
    """``PhotonDistribution``'s range and sum checks on every column of a
    (4, N) array with rows (p0, p1, p2, p3); returns the array."""
    ok = np.isfinite(probs) & (probs >= -_NEG_TOL) & (probs <= 1.0 + _NEG_TOL)
    if not ok.all():
        col, row = np.argwhere(~ok.T)[0]
        raise ValueError(f"p{row}={float(probs[row, col])!r} is not a probability")
    total = probs[0] + probs[1] + probs[2] + probs[3]
    bad = np.flatnonzero(np.abs(total - 1.0) > _SUM_TOL)
    if bad.size:
        raise ValueError(f"probabilities sum to {float(total[bad[0]])!r}, expected 1")
    return probs


@dataclass(frozen=True, slots=True)
class SourceModel:
    """Cascade-source parameters.

    ``alpha_times_is`` is the dimensionless pump drive at the saturation
    power, so ``emission_distribution(model, s)`` is evaluated at drive
    ``alpha_times_is * s`` with ``s`` the pump power in saturation units.
    ``qy_x`` and ``qy_xx`` are the radiative quantum yields of the exciton
    and biexciton lines.
    """

    alpha_times_is: float
    qy_x: float
    qy_xx: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha_times_is) or self.alpha_times_is <= 0:
            raise ValueError("alpha_times_is must be positive")
        for name, value in (("qy_x", self.qy_x), ("qy_xx", self.qy_xx)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value!r} must lie in [0, 1]")

    def to_dict(self) -> dict[str, float]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SourceModel":
        return cls(alpha_times_is=float(data["alpha_times_is"]),
                   qy_x=float(data["qy_x"]), qy_xx=float(data["qy_xx"]))


@dataclass(frozen=True, slots=True)
class ExcitationProbs:
    """Probabilities of preparing the biexciton (xx) or exciton (x) state."""

    p_xx: float
    p_x: float


def excitation_probs(drive: float) -> ExcitationProbs:
    """Occupation of the cascade ladder at dimensionless pump drive.

    The two-step ladder saturates quadratically: at drive ``x`` the
    biexciton and exciton occupations are ``x**2 / (1 + x + x**2)`` and
    ``x / (1 + x + x**2)``.
    """
    if not math.isfinite(drive) or drive < 0:
        raise ValueError("pump drive must be non-negative")
    z = 1.0 + drive + drive * drive
    return ExcitationProbs(p_xx=drive * drive / z, p_x=drive / z)


def cascade_distribution(ex: ExcitationProbs, qy_x: float,
                         qy_xx: float) -> PhotonDistribution:
    """Emission statistics of a prepared cascade.

    A biexciton preparation emits two photons only if both lines decay
    radiatively; one photon if exactly one line does.  An exciton
    preparation emits one photon with yield ``qy_x``.
    """
    for name, value in (("p_xx", ex.p_xx), ("p_x", ex.p_x),
                        ("qy_x", qy_x), ("qy_xx", qy_xx)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name}={value!r} must lie in [0, 1]")
    if ex.p_xx + ex.p_x > 1.0 + _NEG_TOL:
        raise ValueError("occupation probabilities exceed 1")
    p2 = ex.p_xx * qy_x * qy_xx
    p1 = ex.p_xx * (qy_x + qy_xx - 2.0 * qy_x * qy_xx) + ex.p_x * qy_x
    return PhotonDistribution(p0=1.0 - p1 - p2, p1=p1, p2=p2)


def emission_distribution(model: SourceModel, s: float) -> PhotonDistribution:
    """Photon-number distribution emitted at pump power ``s`` (saturation units)."""
    if not math.isfinite(s) or s < 0:
        raise ValueError("pump power must be non-negative")
    exc = excitation_probs(model.alpha_times_is * s)
    return cascade_distribution(exc, model.qy_x, model.qy_xx)


def mean_photon_number(d: PhotonDistribution) -> float:
    """First moment ``<n>`` of the distribution."""
    return d.p1 + 2.0 * d.p2 + 3.0 * d.p3


def g2_of(d: PhotonDistribution) -> float:
    """Second-order zero-delay autocorrelation ``<n(n-1)> / <n>**2``."""
    mean = mean_photon_number(d)
    if mean == 0.0:
        raise ValueError("g2 is undefined for a vacuum distribution")
    return (2.0 * d.p2 + 6.0 * d.p3) / (mean * mean)


def g3_of(d: PhotonDistribution) -> float:
    """Third-order zero-delay autocorrelation ``<n(n-1)(n-2)> / <n>**3``."""
    mean = mean_photon_number(d)
    if mean == 0.0:
        raise ValueError("g3 is undefined for a vacuum distribution")
    return 6.0 * d.p3 / mean**3


def g2_upper_bound(p0: float) -> float:
    """Largest g2 any distribution with vacuum weight ``p0`` can have.

    On the {0, 1, 2} basis the autocorrelation is maximised by putting all
    non-vacuum weight into the two-photon term, giving ``1 / (2 (1 - p0))``.
    """
    if not 0.0 <= p0 < 1.0:
        raise ValueError("p0 must lie in [0, 1)")
    return 1.0 / (2.0 * (1.0 - p0))


def extract_p0(count_rate_c: float, rep_rate_n: float, eta_detection: float) -> float:
    """Vacuum probability from a calibrated count rate.

    Uses the linear-detection approximation ``C = eta * N * <n>`` with
    ``<n> = 1 - p0`` on a nearly single-photon stream; accurate only for
    small detection efficiency, so values above 10% are flagged.
    """
    if count_rate_c < 0 or rep_rate_n <= 0 or not 0.0 < eta_detection <= 1.0:
        raise ValueError("count rate, repetition rate and efficiency must be physical")
    if eta_detection > 0.1:
        warnings.warn(
            "extract_p0 assumes detection probability linear in photon number; "
            f"eta_detection={eta_detection} is too large for that to hold well",
            stacklevel=2,
        )
    p0 = 1.0 - count_rate_c / (eta_detection * rep_rate_n)
    if not 0.0 <= p0 <= 1.0:
        raise InfeasibleObservablesError(
            f"count rate implies p0={p0:.6g}, outside [0, 1]")
    return p0


def extract_distribution_g2(p0: float, g2: float) -> PhotonDistribution:
    """Invert (p0, g2) to a {0, 1, 2} distribution.

    With ``b = 1 - p0`` the quadratic ``g2*p2**2 + 2*(g2*b - 1)*p2 + g2*b**2 = 0``
    pins the two-photon weight.  Of the two roots the smaller one is the
    branch continuously connected to ``g2 = 0`` (pure single photons) and is
    the one returned; the feasibility bound ``g2 <= 1/(2b)`` is exactly the
    condition for real roots.
    """
    if not 0.0 <= p0 < 1.0:
        raise ValueError("p0 must lie in [0, 1)")
    if g2 < 0 or not math.isfinite(g2):
        raise ValueError("g2 must be non-negative")
    b = 1.0 - p0
    if g2 == 0.0:
        return PhotonDistribution(p0=p0, p1=b, p2=0.0)
    disc = 1.0 - 2.0 * g2 * b
    if disc < -_ROOT_TOL:
        raise InfeasibleObservablesError(
            f"g2={g2} exceeds the bound {g2_upper_bound(p0):.6g} for p0={p0}")
    disc = max(disc, 0.0)
    # smaller root in the cancellation-free (citardauq) form: the naive
    # (1 - g2 b - sqrt(disc)) / g2 loses all digits as g2 -> 0
    p2 = g2 * b * b / (1.0 - g2 * b + math.sqrt(disc))
    p2 = min(max(p2, 0.0), b)
    p1 = b - p2
    return PhotonDistribution(p0=p0, p1=p1, p2=p2)


def _g3_residuals(p: np.ndarray, b: float, g2: float, g3: float) -> np.ndarray:
    p1, p2, p3 = p
    mu = p1 + 2.0 * p2 + 3.0 * p3
    return np.array([
        p1 + p2 + p3 - b,
        2.0 * p2 + 6.0 * p3 - g2 * mu * mu,
        6.0 * p3 - g3 * mu**3,
    ])


def _g3_jacobian(p: np.ndarray, g2: float, g3: float) -> np.ndarray:
    p1, p2, p3 = p
    mu = p1 + 2.0 * p2 + 3.0 * p3
    dmu = np.array([1.0, 2.0, 3.0])
    row1 = np.array([1.0, 1.0, 1.0])
    row2 = np.array([0.0, 2.0, 6.0]) - 2.0 * g2 * mu * dmu
    row3 = np.array([0.0, 0.0, 6.0]) - 3.0 * g3 * mu * mu * dmu
    return np.vstack([row1, row2, row3])


def extract_distribution_g3(p0: float, g2: float, g3: float) -> PhotonDistribution:
    """Invert (p0, g2, g3) to a {0, 1, 2, 3} distribution.

    Solves the 3x3 moment system by damped Newton iteration, seeded with
    the g2-only inversion (three-photon weight zero).  The damping halves
    the step until the residual norm decreases, which keeps the iteration
    inside the physical simplex for all feasible inputs.
    """
    if g3 < 0 or not math.isfinite(g3):
        raise ValueError("g3 must be non-negative")
    seed2 = extract_distribution_g2(p0, g2)
    if g3 == 0.0:
        return seed2
    b = 1.0 - p0
    p = np.array([seed2.p1, seed2.p2, max(g3 * b**3 / 6.0, 1e-12)])
    res = _g3_residuals(p, b, g2, g3)
    for _ in range(_MAX_NEWTON_ITER):
        norm = np.max(np.abs(res))
        if norm < _ROOT_TOL:
            break
        try:
            step = np.linalg.solve(_g3_jacobian(p, g2, g3), -res)
        except np.linalg.LinAlgError as exc:
            raise InfeasibleObservablesError(
                "moment system is singular at the current iterate") from exc
        scale = 1.0
        for _ in range(60):
            trial = p + scale * step
            trial_res = _g3_residuals(trial, b, g2, g3)
            if np.sum(trial_res**2) < np.sum(res**2):
                p, res = trial, trial_res
                break
            scale *= 0.5
        else:
            raise InfeasibleObservablesError(
                f"no distribution matches p0={p0}, g2={g2}, g3={g3}")
    else:
        raise InfeasibleObservablesError(
            f"moment inversion did not converge for p0={p0}, g2={g2}, g3={g3}")
    p1, p2, p3 = (float(v) for v in p)
    if min(p1, p2, p3) < -1e-9:
        raise InfeasibleObservablesError(
            f"inversion of p0={p0}, g2={g2}, g3={g3} leaves the simplex")
    return PhotonDistribution(p0=p0, p1=max(p1, 0.0), p2=max(p2, 0.0),
                              p3=max(p3, 0.0))


def apply_collection(d: PhotonDistribution, eta_c: float) -> PhotonDistribution:
    """Binomial thinning of the distribution by collection efficiency ``eta_c``.

    Each emitted photon independently survives with probability ``eta_c``;
    this loss sits inside the transmitter, before the quantum channel, so
    it reshapes the emission statistics instead of adding channel loss.
    """
    if not 0.0 <= eta_c <= 1.0:
        raise ValueError("eta_c must lie in [0, 1]")
    p1, p2, p3 = _collected(d.p1, d.p2, d.p3, eta_c)
    return PhotonDistribution(p0=1.0 - p1 - p2 - p3, p1=p1, p2=p2, p3=p3)


def apply_collection_array(probs: np.ndarray, eta_c) -> np.ndarray:
    """``apply_collection`` on every column of a (4, N) array of
    distributions, checked like ``PhotonDistribution``; ``eta_c`` is a
    scalar or a length-N array."""
    if not np.all((0.0 <= eta_c) & (eta_c <= 1.0)):
        raise ValueError("eta_c must lie in [0, 1]")
    p1, p2, p3 = _collected(probs[1], probs[2], probs[3], eta_c)
    return check_distribution_array(np.stack([1.0 - p1 - p2 - p3, p1, p2, p3]))


def _collected(p1, p2, p3, eta_c):
    # shared by the scalar and array forms, so both round alike; an array
    # eta_c is cubed by Python's pow like a scalar (numpy's ** rounds apart)
    c, m = eta_c, 1.0 - eta_c
    cube = c**3 if np.ndim(c) == 0 else np.array([x**3 for x in c.tolist()])
    return (p1 * c + 2.0 * p2 * c * m + 3.0 * p3 * c * m * m,
            p2 * c * c + 3.0 * p3 * c * c * m,
            p3 * cube)


# hp_transform's settings, each checked to lie in [0, 1]
_HP_SETTINGS = ("beam-splitter transmission", "eta_d", "p_dc")


def hp_transform(d: PhotonDistribution, t: float, eta_d: float,
                 p_dc: float) -> tuple[float, float]:
    """Heralded-purification joint probabilities toward the channel.

    A beam splitter with transmission ``t`` routes photons either to the
    quantum channel or to a heralding detector with efficiency ``eta_d``
    and per-pulse dark-count probability ``p_dc``.  Returns the joint
    per-pulse probabilities (herald fired, one photon toward the channel)
    and (herald fired, two photons toward the channel):

        p1_tilde = 2 p2 r t (eta_d + p_dc) + t p1 p_dc
        p2_tilde = t**2 p2 p_dc

    with ``r = 1 - t``.  A genuine two-photon event passes only when a
    dark count fakes the herald, which is what suppresses multi-photon
    leakage.
    """
    for what, v in zip(_HP_SETTINGS, (t, eta_d, p_dc)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{what} must lie in [0, 1]")
    if d.p3 != 0.0:
        raise ValueError("heralded purification is defined on the {0,1,2} basis")
    return _heralded(d.p1, d.p2, t, eta_d, p_dc)


def hp_transform_array(probs: np.ndarray, t, eta_d,
                       p_dc) -> tuple[np.ndarray, np.ndarray]:
    """``hp_transform`` of every column of a (4, N) array of distributions.

    ``t``, ``eta_d`` and ``p_dc`` are scalars or length-N arrays.  The
    formula uses only +, - and *, so every entry equals the scalar result
    bit for bit; the range and p3 checks are the scalar form's.
    """
    for what, v in zip(_HP_SETTINGS, (t, eta_d, p_dc)):
        if not np.all((0.0 <= v) & (v <= 1.0)):
            raise ValueError(f"{what} must lie in [0, 1]")
    if np.any(probs[3] != 0.0):
        raise ValueError("heralded purification is defined on the {0,1,2} basis")
    return _heralded(probs[1], probs[2], t, eta_d, p_dc)


def _heralded(p1, p2, t, eta_d, p_dc):
    # shared by the scalar and array forms, so both round alike
    r = 1.0 - t
    return 2.0 * p2 * r * t * (eta_d + p_dc) + t * p1 * p_dc, t * t * p2 * p_dc


def hp_herald_probability(d: PhotonDistribution, t: float, eta_d: float,
                          p_dc: float) -> float:
    """Total probability per pulse that the heralding detector fires.

    Exact threshold-detector click probability: with ``k`` photons
    reflected, the herald fires unless all of them are missed and no dark
    count occurs.
    """
    if d.p3 != 0.0:
        raise ValueError("heralded purification is defined on the {0,1,2} basis")
    r = 1.0 - t
    miss = 1.0 - eta_d
    quiet = 1.0 - p_dc
    # Split each Fock component over the beam splitter and apply the
    # click probability 1 - miss**k_reflected * quiet.
    total = 0.0
    for n, pn in enumerate((d.p0, d.p1, d.p2)):
        for k in range(n + 1):
            split = math.comb(n, k) * (r ** k) * (t ** (n - k))
            total += pn * split * (1.0 - miss**k * quiet)
    return total


def saturation_power(qy_x: float, qy_xx: float) -> float:
    """Pump drive at which the mean photon number reaches 90% of its ceiling.

    The asymptotic mean is ``qy_x + qy_xx`` (fully saturated cascade); the
    90% condition reduces to a quadratic in the drive with a single
    positive root.  Doubling both yields leaves the result unchanged.
    """
    if not 0.0 <= qy_x <= 1.0 or not 0.0 <= qy_xx <= 1.0:
        raise ValueError("quantum yields must lie in [0, 1]")
    total = qy_x + qy_xx
    if total == 0.0:
        raise ValueError("at least one quantum yield must be positive")
    beta = qy_x / total
    # 0.1 a^2 + (beta - 0.9) a - 0.9 = 0, positive root.
    return ((0.9 - beta) + math.sqrt((beta - 0.9) ** 2 + 0.36)) / 0.2


def _projected_fit(s: np.ndarray, counts: np.ndarray,
                   drive_scale: float) -> tuple[float, np.ndarray]:
    # (x**2 + beta x) / (1 + x + x**2) is linear in beta, so the squared
    # error is a quadratic in beta whose bounded minimum is the clipped
    # unbounded one.  Returns that beta and the residuals.
    x = drive_scale * s
    z = 1.0 + x + x * x
    u, v = x * x / z, x / z
    beta = min(max(float(v @ (counts - u)) / float(v @ v), 0.0), 1.0)
    return beta, u + beta * v - counts


def fit_source_model(s: np.ndarray, counts: np.ndarray) -> tuple[SourceModel, float]:
    """Fit the saturation curve of normalized counts versus pump power.

    ``counts`` must be normalized to the saturated asymptote; the curve
    then determines the drive scale ``alpha_times_is`` and the yield ratio
    ``beta = qy_x / (qy_x + qy_xx)`` but not the absolute yields, so the
    returned model uses the unit-sum convention ``qy_x + qy_xx = 1``.
    Returns the model and the fit NRMSE (RMSE over the data range).

    Beta is projected out in closed form (variable projection, Golub &
    Pereyra, SIAM J. Numer. Anal. 10, 413, 1973), leaving a search over
    ``log a``: a log-grid scan of a in [1e-6, 1e6] brackets the best scale,
    since the projected error is flat at both ends, and golden section
    refines it.
    """
    s = np.asarray(s, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if s.ndim != 1 or s.shape != counts.shape or s.size < 3:
        raise FitError("need matching 1-d arrays with at least 3 samples")
    if np.any(s < 0) or not np.all(np.isfinite(s)) or not np.all(np.isfinite(counts)):
        raise FitError("powers must be non-negative and finite")
    if not np.any(s > 0):
        raise FitError("need at least one positive power")
    span = float(np.max(counts) - np.min(counts))
    if span <= 0:
        raise FitError("counts carry no power dependence to fit")

    def neg_sse(log_a: float) -> float:
        r = _projected_fit(s, counts, math.exp(log_a))[1]
        return -float(r @ r)

    grid = np.linspace(math.log(1e-6), math.log(1e6), 57)
    k = int(np.argmax([neg_sse(g) for g in grid]))
    log_a = golden_max(neg_sse, grid[max(k - 1, 0)],
                       grid[min(k + 1, grid.size - 1)], 1e-10)
    drive_scale = math.exp(log_a)
    beta, r = _projected_fit(s, counts, drive_scale)
    rmse = float(np.sqrt(np.mean(r**2)))
    model = SourceModel(alpha_times_is=drive_scale, qy_x=beta, qy_xx=1.0 - beta)
    return model, rmse / span
