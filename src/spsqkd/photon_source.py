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

from .errors import FitError, InfeasibleObservablesError, raise_first
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

    to_dict = asdict

    @classmethod
    def from_dict(cls, data: dict) -> "PhotonDistribution":
        """Parse ``p0``..``p3``; an absent weight reads as 0."""
        return cls(**{k: float(data.get(k, 0.0))
                      for k in ("p0", "p1", "p2", "p3")})


def check_distribution_array(probs: np.ndarray) -> np.ndarray:
    """``PhotonDistribution``'s range and sum checks on every column of a
    (4, N) array with rows (p0, p1, p2, p3); returns the array.  The first
    failing column raises through ``PhotonDistribution``, as a loop over
    the columns would."""
    raise_first(_distributions_ok(probs), PhotonDistribution, *probs)
    return probs


def _distributions_ok(probs: np.ndarray) -> np.ndarray:
    # PhotonDistribution's range and sum rules, one bool per column
    ok = np.isfinite(probs) & (probs >= -_NEG_TOL) & (probs <= 1.0 + _NEG_TOL)
    total = probs[0] + probs[1] + probs[2] + probs[3]
    return ok.all(axis=0) & (np.abs(total - 1.0) <= _SUM_TOL)


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
        _check_unit(qy_x=self.qy_x, qy_xx=self.qy_xx)

    to_dict = asdict

    @classmethod
    def from_dict(cls, data: dict) -> "SourceModel":
        return cls(alpha_times_is=float(data["alpha_times_is"]),
                   qy_x=float(data["qy_x"]), qy_xx=float(data["qy_xx"]))


def _check_unit(**values: float) -> None:
    # ValueError naming the first of ``values`` outside [0, 1]
    for name, value in values.items():
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name}={value!r} must lie in [0, 1]")


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
    _check_unit(p_xx=ex.p_xx, p_x=ex.p_x, qy_x=qy_x, qy_xx=qy_xx)
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
    small detection efficiency, so values above 10% are flagged.  The
    count rate must be finite and >= 0, the repetition rate finite and
    > 0, and the efficiency in (0, 1], or ValueError.
    """
    if (not 0.0 <= count_rate_c < math.inf or not 0.0 < rep_rate_n < math.inf
            or not 0.0 < eta_detection <= 1.0):
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
    bound = g2_upper_bound(p0)  # checks p0
    if g2 < 0 or not math.isfinite(g2):
        raise ValueError("g2 must be non-negative")
    b = 1.0 - p0
    if g2 == 0.0:
        return PhotonDistribution(p0=p0, p1=b, p2=0.0)
    disc = 1.0 - 2.0 * g2 * b
    if disc < -_ROOT_TOL:
        raise InfeasibleObservablesError(
            f"g2={g2} exceeds the bound {bound:.6g} for p0={p0}")
    disc = max(disc, 0.0)
    # smaller root in the cancellation-free (citardauq) form: the naive
    # (1 - g2 b - sqrt(disc)) / g2 loses all digits as g2 -> 0
    p2 = g2 * b * b / (1.0 - g2 * b + math.sqrt(disc))
    p2 = min(max(p2, 0.0), b)
    p1 = b - p2
    return PhotonDistribution(p0=p0, p1=p1, p2=p2)


def _g3_residuals(p1: float, p2: float, p3: float, b: float, g2: float,
                  g3: float) -> tuple[float, float, float]:
    mu = p1 + 2.0 * p2 + 3.0 * p3
    return (p1 + p2 + p3 - b,
            2.0 * p2 + 6.0 * p3 - g2 * mu * mu,
            6.0 * p3 - g3 * mu**3)


def _sum_sq(res: tuple[float, float, float]) -> float:
    # left to right, as np.sum of three (built-in sum compensates from 3.12)
    r0, r1, r2 = res
    return r0 * r0 + r1 * r1 + r2 * r2


def _g3_jacobian(p1: float, p2: float, p3: float, g2: float,
                 g3: float) -> np.ndarray:
    mu = p1 + 2.0 * p2 + 3.0 * p3
    d2 = 2.0 * g2 * mu  # times d mu / d p = (1, 2, 3)
    d3 = 3.0 * g3 * mu * mu
    return np.array([[1.0, 1.0, 1.0],
                     [0.0 - d2, 2.0 - d2 * 2.0, 6.0 - d2 * 3.0],
                     [0.0 - d3, 0.0 - d3 * 2.0, 6.0 - d3 * 3.0]])


def _cubic_seed(b: float, g2: float,
                g3: float) -> tuple[float, float, float] | None:
    # With p3 = g3 mu^3 / 6 and p2 = (g2 mu^2 - g3 mu^3) / 2, the moments
    # leave one cubic in the mean mu: g3 mu^3/6 - g2 mu^2/2 + mu - b = 0.
    # (p1, p2, p3) of its smallest positive root with non-negative weights,
    # or None if no root has them
    roots = np.roots([g3 / 6.0, -g2 / 2.0, 1.0, -b])
    for mu in sorted(r.real for r in roots
                     if r.real > 0.0 and abs(r.imag) <= 1e-6 * abs(r)):
        p3 = g3 * mu**3 / 6.0
        p2 = (g2 * mu * mu - g3 * mu**3) / 2.0
        if min(b - p2 - p3, p2, p3) >= -1e-9:
            return b - p2 - p3, p2, p3
    return None


def extract_distribution_g3(p0: float, g2: float, g3: float) -> PhotonDistribution:
    """Invert (p0, g2, g3) to a {0, 1, 2, 3} distribution.

    At g3 = 0 this is ``extract_distribution_g2``.  Otherwise it solves
    the 3x3 moment system by damped Newton iteration; the damping halves
    the step until the residual norm decreases.  At or below the
    {0, 1, 2}-basis ceiling ``g2 <= 1 / (2 (1 - p0))`` the seed is the
    g2-only inversion with a small three-photon weight.  Above it, where
    that inversion does not exist, the seed is the exact solution from the
    cubic in the mean photon number (``_cubic_seed``), which Newton only
    polishes; InfeasibleObservablesError if no root of the cubic has
    non-negative weights.  It is raised too when the iteration stalls or
    ends outside the simplex.  The iterate and residuals are Python floats;
    only the linear solve and the cubic's roots use numpy.
    """
    if g3 < 0 or not math.isfinite(g3):
        raise ValueError("g3 must be non-negative")
    if g3 == 0.0:
        return extract_distribution_g2(p0, g2)
    b = 1.0 - p0
    try:
        seed2 = extract_distribution_g2(p0, g2)
        p = (seed2.p1, seed2.p2, max(g3 * b**3 / 6.0, 1e-12))
    except InfeasibleObservablesError as exc:  # above the {0,1,2} ceiling
        p = _cubic_seed(b, g2, g3)
        if p is None:
            raise InfeasibleObservablesError(
                f"no {{0,1,2,3}} distribution has p0={p0}, g2={g2}, g3={g3}"
            ) from exc
    res = _g3_residuals(*p, b, g2, g3)
    for _ in range(_MAX_NEWTON_ITER):
        if all(abs(r) < _ROOT_TOL for r in res):  # NaN never converges
            break
        try:
            step = np.linalg.solve(_g3_jacobian(*p, g2, g3),
                                   [-r for r in res]).tolist()
        except np.linalg.LinAlgError as exc:
            raise InfeasibleObservablesError(
                "moment system is singular at the current iterate") from exc
        scale = 1.0
        sse = _sum_sq(res)
        for _ in range(60):
            trial = tuple(x + scale * s for x, s in zip(p, step))
            trial_res = _g3_residuals(*trial, b, g2, g3)
            if _sum_sq(trial_res) < sse:
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
    check_collection(eta_c)
    p1, p2, p3 = _collected(d.p1, d.p2, d.p3, eta_c)
    return PhotonDistribution(p0=1.0 - p1 - p2 - p3, p1=p1, p2=p2, p3=p3)


def apply_collection_array(probs: np.ndarray, eta_c) -> np.ndarray:
    """``apply_collection`` on every column of a (4, N) array of
    distributions, checked like ``PhotonDistribution``; ``eta_c`` is a
    scalar or a length-N array."""
    check_collection(eta_c)
    p1, p2, p3 = _collected(probs[1], probs[2], probs[3], eta_c)
    return check_distribution_array(np.stack([1.0 - p1 - p2 - p3, p1, p2, p3]))


def check_collection(eta_c) -> None:
    """ValueError unless the collection efficiency ``eta_c``, a scalar or
    every entry of an array, lies in [0, 1]."""
    if not np.all((0.0 <= eta_c) & (eta_c <= 1.0)):
        raise ValueError("eta_c must lie in [0, 1]")


def _collected(p1, p2, p3, eta_c):
    # shared by the scalar and array forms, so both round alike; an array
    # eta_c is cubed by Python's pow like a scalar (numpy's ** rounds apart)
    c, m = eta_c, 1.0 - eta_c
    cube = c**3 if np.ndim(c) == 0 else np.array([x**3 for x in c.tolist()])
    return (p1 * c + 2.0 * p2 * c * m + 3.0 * p3 * c * m * m,
            p2 * c * c + 3.0 * p3 * c * c * m,
            p3 * cube)


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
    _check_hp(d.p3, t, eta_d, p_dc)
    return _heralded(d.p1, d.p2, t, eta_d, p_dc)


def _check_hp(p3: float, t: float, eta_d: float, p_dc: float) -> None:
    # the scalar purification inputs: each setting in [0, 1], then no p3
    for what, v in (("beam-splitter transmission", t), ("eta_d", eta_d),
                    ("p_dc", p_dc)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{what} must lie in [0, 1]")
    if p3 != 0.0:
        raise ValueError("heralded purification is defined on the {0,1,2} basis")


def _heralded(p1, p2, t, eta_d, p_dc):
    # shared by the scalar and array forms, so both round alike
    r = 1.0 - t
    return 2.0 * p2 * r * t * (eta_d + p_dc) + t * p1 * p_dc, t * t * p2 * p_dc


def hp_effective_distribution(d: PhotonDistribution, t: float, eta_d: float,
                              p_dc_alice: float) -> PhotonDistribution:
    """Effective per-pulse distribution sent onward by the purification stage.

    The heralding beam splitter maps the source onto the joint
    probabilities of (herald, n photons toward the channel) for n = 1, 2;
    every other pulse contributes vacuum, since un-heralded pulses are
    discarded from the key and heralded-vacuum pulses carry nothing.
    """
    p1t, p2t = hp_transform(d, t, eta_d, p_dc_alice)
    return PhotonDistribution(p0=1.0 - p1t - p2t, p1=p1t, p2=p2t)


def hp_effective_array(probs: np.ndarray, t, eta_d, p_dc_alice) -> np.ndarray:
    """``hp_effective_distribution`` of each column of a (4, N) array of
    checked distributions; ``t``, ``eta_d`` and ``p_dc_alice`` are scalars
    or length-N arrays.

    Rows 1 and 2 are ``hp_transform``'s results: the formula uses only +,
    - and *, so every entry equals the scalar result bit for bit.  The
    first column that fails the settings, the basis or the effective
    distribution's checks replays the scalar call, which raises there.
    """
    ok = probs[3] == 0.0
    for v in (t, eta_d, p_dc_alice):
        ok = ok & (0.0 <= v) & (v <= 1.0)
    p1t, p2t = _heralded(probs[1], probs[2], t, eta_d, p_dc_alice)
    eff = np.stack([1.0 - p1t - p2t, p1t, p2t, np.zeros_like(p1t)])
    raise_first(ok & _distributions_ok(eff),
                lambda p0, p1, p2, p3, *setting: hp_effective_distribution(
                    PhotonDistribution(p0, p1, p2, p3), *setting),
                *probs, t, eta_d, p_dc_alice)
    return eff


def hp_herald_probability(d: PhotonDistribution, t: float, eta_d: float,
                          p_dc: float) -> float:
    """Total probability per pulse that the heralding detector fires.

    Exact threshold-detector click probability: the herald fires unless
    every photon passes the splitter or is missed and no dark count
    occurs.  Each photon is silent with probability u = 1 - (1 - t) eta_d,
    so an n-photon pulse fires it with probability 1 - u**n (1 - p_dc).
    The settings and basis are checked as in ``hp_transform``.
    """
    _check_hp(d.p3, t, eta_d, p_dc)
    u = 1.0 - (1.0 - t) * eta_d
    quiet = 1.0 - p_dc
    return (d.p0 * (1.0 - quiet) + d.p1 * (1.0 - u * quiet)
            + d.p2 * (1.0 - u * u * quiet))


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
