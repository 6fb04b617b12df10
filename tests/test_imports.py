"""Package surface: the public names, a numpy-only command line, one
site for each raise statement and no run of code lines written twice."""

import ast
import io
import json
import os
import subprocess
import sys
import tokenize
from collections import Counter, defaultdict
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


PACKAGE = Path(spsqkd.__file__).resolve().parent

# tokens that carry no code: layout, comments and the stream's ends
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> list[tuple[int, tuple[str, ...]]]:
    """(line number, tokens) of each line of ``source`` that holds code:
    docstrings, comments and blank lines left out, and a token that spans
    lines counted on its first."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = defaultdict(list)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT and tok.start[0] not in docs:
            lines[tok.start[0]].append(tok.string)
    return [(n, tuple(lines[n])) for n in sorted(lines)]


def repeated_runs(sources: dict[str, str]) -> dict:
    """Each run of three or more code lines that appears more than once
    across ``sources`` (name -> text), as its tokens -> the "name:first-last"
    line ranges where it appears.  Overlapping repeated windows of three
    lines merge into one run."""
    lines = {name: code_lines(text) for name, text in sources.items()}
    sites = defaultdict(list)
    for name, code in lines.items():
        for k in range(len(code) - 2):
            sites[tuple(t for _, t in code[k:k + 3])].append((name, k))
    marked = {site for where in sites.values() if len(where) > 1
              for site in where}
    runs = defaultdict(list)
    for name, k in sorted(marked):
        if (name, k - 1) in marked:
            continue  # inside a run that starts earlier
        end = k
        while (name, end + 1) in marked:
            end += 1
        code = lines[name][k:end + 3]
        runs[tuple(t for _, t in code)].append(
            f"{name}:{code[0][0]}-{code[-1][0]}")
    return dict(runs)


def test_no_three_code_lines_are_written_twice():
    # a rule written twice drifts apart: each run of three code lines
    # (compared by their tokens) appears once in the package
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert list(repeated_runs(sources).values()) == []


def test_the_repeat_check_finds_a_copied_run_and_merges_its_windows():
    # a four-line copy is one run of two windows; a two-line copy is none
    body = "x = f(a)\ny = g(x)\nz = x + y\nw = z * 2\n"
    found = repeated_runs({
        "a.py": '"""doc"""\n' + body + "v = 1\nu = 2\n",
        "b.py": "# note\n" + body + "t = 3\nv = 1\nu = 2\n"})
    assert list(found.values()) == [["a.py:2-5", "b.py:2-5"]]


def test_each_exception_is_raised_from_one_site():
    # one rule, one raise: a second copy of a raise statement is a rule
    # written twice, which a helper that both sites call replaces
    raises = Counter(
        ast.unparse(node) for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call))
    assert [text for text, n in raises.items() if n > 1] == []
