"""Record the reference artefacts that run.py checks outputs against.

    python3 bench/record.py

Runs every byte-checked job once -- each gamma-map and design-sweep
variant, and pulse-sim at seed 0 -- and writes the SHA-256 of each
artefact, version stamp masked, to bench/reference.json.  References
pin the program's output bits: record them at one commit and never
again to absorb a change in output.
"""

import json
import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
os.chdir(ROOT)

import numpy  # noqa: E402

import run  # noqa: E402  (also pins the thread variables)
import workloads  # noqa: E402


def main() -> int:
    outputs = {}
    for name in workloads.WORKLOADS:
        seeds = [0] if name == "pulse-sim" else range(workloads.VARIANTS)
        for seed in seeds:
            wl = workloads.build(name, seed)
            for job in wl.jobs:
                if not job.byte_checked:
                    continue
                text = job.run()
                faults = job.check(text)
                if faults:
                    print(f"{name} {job.name}: {faults}", file=sys.stderr)
                    return 1
                outputs[f"{wl.ref_prefix}/{job.name}"] = {
                    "sha256": workloads.digest(text),
                    "bytes": len(text.encode())}
                print(f"{wl.ref_prefix}/{job.name}", flush=True)
    doc = {"recorded_with": {"git_sha": run._git_sha(),
                             "python": platform.python_version(),
                             "numpy": numpy.__version__},
           "outputs": outputs}
    (BENCH / "reference.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
