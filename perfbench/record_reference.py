"""Write reference.json: what every workload and solver seed must reproduce.

For each workload and each seed of ``workloads.PROGRAM_SEEDS`` it keeps
the certificate constants and the SHA-256 of every artifact.  Run it
from the root of a checkout at a commit whose outputs are known to be
right::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import checks
from run import BENCH, ROOT, THREAD_ENV, WORK
from workloads import PROGRAM_SEEDS, WORKLOADS


def main() -> int:
    env = dict(os.environ, **THREAD_ENV)
    reference = {}
    for w in WORKLOADS.values():
        reference[w.name] = {}
        for seed in PROGRAM_SEEDS:
            out = WORK / "reference" / w.name / str(seed)
            shutil.rmtree(out, ignore_errors=True)
            meta = out.with_suffix(".meta.json")
            out.parent.mkdir(parents=True, exist_ok=True)
            code = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(meta), "-",
                 *w.argv, "--seed", str(seed), "--out", str(out)],
                cwd=ROOT, env=env,
            ).returncode
            entry = {
                "certificate": json.loads((out / w.certificate).read_text()),
                "digests": checks.digests(out),
            }
            problems = checks.check_run(w, out, code, entry)
            if problems:
                print(f"{w.name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            reference[w.name][str(seed)] = entry
            print(f"{w.name} seed {seed}: recorded", flush=True)
    (BENCH / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
