"""Print the statements of the spsqkd package that no run reached.

Runs the tier-1 test suite in this process under a line tracer
(``sys.settrace``) and, with ``--workloads``, each benchmark job once
(``bench/workloads.py``, seed 0).  Then it prints, per module of
``src/spsqkd``, the statements (found with ``ast``) that none of these
runs executed, one line each: line number and source, as the file read
when the run started.  Only the standard library is used, besides pytest
and what the tests and jobs import.

    python3 tools/uncovered.py [--workloads] [pytest argument ...]

Run it from the root of a checkout.  The pytest arguments default to the
whole ``tests`` directory.  The jobs write their inputs and artefacts
under ``.bench_work/``, as the benchmark does; nothing under ``bench/``
is written.  Tracing makes the suite several times slower, and
hypothesis runs without deadlines here, so this is not part of tier-1.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spsqkd"


def statement_lines(source: str) -> dict[int, set[int]]:
    """Each statement's first line -> the lines whose execution runs it.

    A simple statement runs on any of its lines; a compound one on its
    header (decorators through the line before its first nested
    statement).  ``try`` has no code of its own, so it counts as run with
    its first statement.  Docstrings and other bare constants compile to
    no code and are left out.
    """
    out: dict[int, set[int]] = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        nested = [child.lineno for child in ast.iter_child_nodes(node)
                  if isinstance(child, (ast.stmt, ast.excepthandler))]
        if isinstance(node, ast.Try):
            out[node.lineno] = set(range(node.body[0].lineno,
                                         node.body[0].end_lineno + 1))
        else:
            last = min(nested) - 1 if nested else node.end_lineno
            out[node.lineno] = set(range(first, max(last, first) + 1))
    return out


class LineTracer:
    """Records the executed lines of every module under ``PACKAGE``."""

    def __init__(self) -> None:
        self.hits: dict[str, set[int]] = {}
        self._local: dict[str, object] = {}

    def _tracer_for(self, filename: str):
        if filename not in self._local:
            lines = self.hits.setdefault(filename, set())

            def local(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return local

            self._local[filename] = local
        return self._local[filename]

    def __call__(self, frame, event, arg):
        # the global tracer sees "call" events only
        filename = frame.f_code.co_filename
        if filename.startswith(str(PACKAGE)):
            return self._tracer_for(filename)
        return None

    def start(self) -> None:
        threading.settrace(self)
        sys.settrace(self)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


class NoDeadlines:
    """A pytest plugin: traced code runs several times slower than any
    hypothesis deadline assumes.  Loaded once pytest has its plugins, so
    hypothesis is imported after pytest can rewrite its asserts."""

    @staticmethod
    def pytest_configure(config) -> None:
        from hypothesis import settings

        settings.register_profile("uncovered", deadline=None)
        settings.load_profile("uncovered")


def run_tests(pytest_args: list[str]) -> int:
    import pytest

    return pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args],
                       plugins=[NoDeadlines()])


def run_workloads() -> list[str]:
    """Run every benchmark job once; return the names of jobs that raised."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    failed = []
    for name in workloads.WORKLOADS:
        for job in workloads.build(name, 0).jobs:
            try:
                job.run()
            except Exception as exc:  # report, and keep tracing the rest
                failed.append(f"{name}/{job.name}: {exc!r}")
    return failed


def report(hits: dict[str, set[int]], sources: dict[Path, str]) -> int:
    """Print the unreached statements of each source, as it was read."""
    total = 0
    for path, source in sorted(sources.items()):
        ran = hits.get(str(path), set())
        missed = sorted(first for first, lines
                        in statement_lines(source).items()
                        if not lines & ran)
        total += len(missed)
        if not missed:
            continue
        text = source.splitlines()
        print(f"{path.relative_to(PACKAGE)}: {len(missed)} statements")
        for line in missed:
            print(f"  {line:5d}  {text[line - 1].strip()}")
    print(f"{total} statements unreached")
    return total


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", action="store_true",
                        help="also run each benchmark job once")
    args, pytest_args = parser.parse_known_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    # read before the run, so the line numbers are those the run executed
    # even if a file is edited while it goes on
    sources = {path: path.read_text(encoding="utf-8")
               for path in PACKAGE.rglob("*.py")}
    tracer = LineTracer()
    tracer.start()
    try:
        run_tests(pytest_args or ["tests"])
        failed = run_workloads() if args.workloads else []
    finally:
        tracer.stop()
    for line in failed:
        print(f"job failed: {line}")
    report(tracer.hits, sources)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
