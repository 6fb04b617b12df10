"""Secure-key-rate analysis for BB84 with imperfect single-photon sources.

The package models sub-Poissonian sources on a truncated photon-number
basis {0, 1, 2, 3}, a threshold-detector lossy channel, and two
single-photon protocols (exact decoy-state estimation on the truncated
basis, and heralded purification at a beam splitter) against the
standard weak-coherent decoy baseline.  Higher layers add loss-budget
analysis, a pulse-level Monte Carlo, tomography ingest, and a CLI.
"""

from types import ModuleType as _ModuleType

from .analysis import (
    GammaMap,
    SkrCurve,
    dtb_rate_fn,
    gamma,
    gamma_map_dtb,
    gamma_vs_efficiency,
    hp_rate_fn,
    hp_threshold,
    mcl,
    optimal_bs_transmission,
    skr_curve,
    wcs_mcl,
    wcs_rate_fn,
    wcs_tagged_rate_fn,
)
from .channel_model import (
    ChannelParams,
    ObservedRates,
    YieldSet,
    eta_n,
    gain_and_qber,
    transmittance,
    wcs_gain_and_qber,
    yields,
)
from .errors import (
    ConfigError,
    DegenerateDecoyError,
    FitError,
    InconsistentDataError,
    InfeasibleObservablesError,
    NoKeyError,
    QkdError,
)
from .ingest import (
    AliceBudget,
    RatesWithSigma,
    SkrPoint,
    TomographyMap,
    effective_channel,
    gains_and_errors,
    maps_from_report,
    read_tomography_csv,
    skr_from_experiment,
    synthetic_map,
    write_tomography_csv,
)
from .montecarlo import SimConfig, SimReport, empirical_g2, run, run_dtb, run_hp
from .photon_source import (
    ExcitationProbs,
    PhotonDistribution,
    SourceModel,
    apply_collection,
    cascade_distribution,
    emission_distribution,
    extract_distribution_g2,
    extract_distribution_g3,
    fit_source_model,
    g2_of,
    g2_upper_bound,
    g3_of,
    hp_herald_probability,
    hp_transform,
    mean_photon_number,
    saturation_power,
)
from .protocols import (
    DecoySolution,
    SkrResult,
    binary_entropy,
    hp_effective_distribution,
    skr_dtb,
    skr_dtb_from_rates,
    skr_hp,
    skr_wcs_infinite_decoy,
    skr_wcs_tagging_bound,
    solve_dtb,
)

__version__ = "0.1.0"

# every public name imported above, not the submodules themselves
__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, _ModuleType)]
    + ["__version__"])
