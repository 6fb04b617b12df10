"""Package surface: the public names, a numpy-only command line, and one
site for each raise statement."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import spsqkd


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so modules the test session imported do not count
    code = ("import json, sys, spsqkd.cli; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    src = str(Path(spsqkd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert json.loads(out.stdout) == []


PUBLIC_NAMES = {
    "AliceBudget", "ChannelParams", "ConfigError", "DecoySolution",
    "DegenerateDecoyError", "ExcitationProbs", "FitError", "GammaMap",
    "InconsistentDataError", "InfeasibleObservablesError", "NoKeyError",
    "ObservedRates", "PhotonDistribution", "QkdError", "RatesWithSigma",
    "SimConfig", "SimReport", "SkrCurve", "SkrPoint", "SkrResult",
    "SourceModel", "TomographyMap", "YieldSet", "__version__",
    "apply_collection", "binary_entropy", "cascade_distribution",
    "dtb_rate_fn", "effective_channel", "emission_distribution",
    "empirical_g2", "eta_n", "extract_distribution_g2",
    "extract_distribution_g3", "fit_source_model", "g2_of", "g2_upper_bound",
    "g3_of", "gain_and_qber", "gains_and_errors", "gamma", "gamma_map_dtb",
    "gamma_vs_efficiency", "hp_effective_distribution",
    "hp_herald_probability", "hp_rate_fn", "hp_threshold", "hp_transform",
    "maps_from_report", "mcl", "mean_photon_number",
    "optimal_bs_transmission", "read_tomography_csv", "run", "run_dtb",
    "run_hp", "saturation_power", "skr_curve", "skr_dtb",
    "skr_dtb_from_rates", "skr_from_experiment", "skr_hp",
    "skr_wcs_infinite_decoy", "skr_wcs_tagging_bound", "solve_dtb",
    "synthetic_map", "transmittance", "wcs_gain_and_qber", "wcs_mcl",
    "wcs_rate_fn", "wcs_tagged_rate_fn", "write_tomography_csv", "yields"}


def test_public_names_resolve_and_are_unchanged():
    assert sorted(spsqkd.__all__) == sorted(PUBLIC_NAMES)
    namespace = {}
    exec("from spsqkd import *", namespace)  # fails on a name that is missing
    assert PUBLIC_NAMES <= namespace.keys()


def test_each_exception_is_raised_from_one_site():
    # one rule, one raise: a second copy of a raise statement is a rule
    # written twice, which a helper that both sites call replaces
    package = Path(spsqkd.__file__).resolve().parent
    raises = Counter(
        ast.unparse(node) for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call))
    assert [text for text, n in raises.items() if n > 1] == []
