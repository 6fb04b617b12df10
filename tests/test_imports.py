"""Package surface: the public names, the names the benchmark calls, a
numpy-only command line, one site for each raise statement and no run of
code lines written twice."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
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
    "empirical_g2", "extract_distribution_g2",
    "extract_distribution_g3", "fit_source_model", "g2_of", "g2_upper_bound",
    "g3_of", "gain_and_qber", "gains_and_errors", "gamma", "gamma_map_dtb",
    "gamma_vs_efficiency", "hp_effective_distribution",
    "hp_herald_probability", "hp_rate_fn", "hp_threshold", "hp_transform",
    "maps_from_report", "mcl", "mean_photon_number",
    "optimal_bs_transmission", "read_tomography_csv", "run", "run_dtb",
    "run_hp", "skr_curve", "skr_dtb",
    "skr_dtb_from_rates", "skr_from_experiment", "skr_hp",
    "skr_wcs_infinite_decoy", "skr_wcs_tagging_bound", "solve_dtb",
    "synthetic_map", "transmittance", "wcs_gain_and_qber", "wcs_mcl",
    "wcs_rate_fn", "wcs_tagged_rate_fn", "write_tomography_csv", "yields"}


def test_public_names_resolve_and_are_unchanged():
    assert sorted(spsqkd.__all__) == sorted(PUBLIC_NAMES)
    namespace = {}
    exec("from spsqkd import *", namespace)  # fails on a name that is missing
    assert PUBLIC_NAMES <= namespace.keys()


BENCH = Path(__file__).resolve().parents[1] / "bench"
PACKAGE = Path(spsqkd.__file__).resolve().parent

# Public names that nothing in the package or the benchmark calls, kept
# because each is a quantity of the paper: the herald rate purification
# keys on, the receiver fitted from the experiment, the source's emission
# law, the g2 of a pulse stream and the synthetic tomography experiment.
PROMISED = {"effective_channel", "emission_distribution", "empirical_g2",
            "hp_herald_probability", "synthetic_map"}


def reached_names(paths) -> set[str]:
    """Every name read, attribute and string constant in the sources at
    ``paths``, a dotted string also by each of its parts.  A name only
    assigned is not reached."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                names.update([node.value, *node.value.split(".")])
    return names


def public_definitions(paths) -> set[str]:
    """The public names that the sources at ``paths`` define at module
    level: each ``def``, ``class`` and assignment target not starting
    with an underscore."""
    names = set()
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names.update(n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_only_promised_public_names_go_uncalled():
    # a public name that only tests reach is deleted or promised here,
    # whether it is exported or only defined in a module
    modules = sorted(PACKAGE.glob("*.py"))
    paths = [path for path in modules
             if path.name != "__init__.py"] + sorted(BENCH.glob("*.py"))
    public = set(spsqkd.__all__) | public_definitions(modules)
    assert public - reached_names(paths) == PROMISED


def test_the_scan_sees_module_level_definitions_and_no_assignment(
        tmp_path):
    # nested and private names are not public; a name only assigned is
    # not reached, so a constant that nothing reads is found
    path = tmp_path / "probe.py"
    path.write_text("A = 1\nB: int = 2\nC, _d = 3, 4\n_E = 5\n"
                    "def f():\n    g = 6\nclass K:\n    h = 7\n"
                    "def _private():\n    return A\n")
    assert public_definitions([path]) == {"A", "B", "C", "f", "K"}
    assert reached_names([path]) & {"A", "B", "C", "g", "h"} == {"A"}


def module_constant(path: Path, name: str):
    """The literal value assigned to ``name`` at the top of ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def bench_names() -> set[tuple[str, str]]:
    """(module, attribute) of each package name the benchmark reaches: the
    tracer's spans ("Class.method" included) and rate factories, and each
    attribute its workloads read from a package module."""
    tracing = BENCH / "tracing.py"
    names = set(module_constant(tracing, "SPANNED"))
    names |= {("analysis", f) for f in module_constant(tracing,
                                                       "RATE_FACTORIES")}
    modules = {"analysis", "channel_model", "cli", "ingest", "montecarlo",
               "photon_source"}
    names |= {(node.value.id, node.attr) for node in ast.walk(ast.parse(
                  (BENCH / "workloads.py").read_text()))
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in modules}
    return names


def test_the_names_the_benchmark_calls_resolve():
    # the benchmark reaches these by name; a rename or deletion fails here
    # rather than in a benchmark run
    names = bench_names()
    assert ("channel_model", "ChannelParams.with_loss") in names
    assert ("montecarlo", "run") in names
    missing = []
    for module, attr in sorted(names):
        obj = importlib.import_module(f"spsqkd.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, missing)
        if obj is missing:
            missing.append(f"{module}.{attr}")
    assert missing == []


# the one definition of a code line, tools/code_lines.py, loaded by path
_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def repeated_runs(sources: dict[str, str]) -> dict:
    """Each run of three or more code lines that appears more than once
    across ``sources`` (name -> text), as its tokens -> the "name:first-last"
    line ranges where it appears.  Overlapping repeated windows of three
    lines merge into one run."""
    lines = {name: code_lines.line_tokens(text)
             for name, text in sources.items()}
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


def test_a_string_over_several_lines_counts_each_line_it_spans():
    # folding code into a multi-line string does not shrink the count;
    # the repeat check reads the string's tokens on its first line
    source = '"""doc\n"""\nx = """a\nb\nc"""\n# note\ny = 1\n'
    assert code_lines.code_lines(source) == 4
    assert code_lines.line_tokens(source) == [
        (3, ("x", "=", '"""a\nb\nc"""')), (7, ("y", "=", "1"))]


def test_each_exception_is_raised_from_one_site():
    # one rule, one raise: a second copy of a raise statement is a rule
    # written twice, which a helper that both sites call replaces
    raises = Counter(
        ast.unparse(node) for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call))
    assert [text for text, n in raises.items() if n > 1] == []
