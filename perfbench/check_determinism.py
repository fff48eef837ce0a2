"""Determinism check for the benchmark's counts.

    python3 perfbench/check_determinism.py

For each workload, runs ``run.py`` on one pass (``--seconds 0``) twice
with ``SEED``, under different hash seeds, and once with ``OTHER``, each
traced and untraced.  Every count (``*.calls``, ``*.cells*``,
``*.raised``, ``identify.budget_spent``) and the untraced
``decided_share``, ``attempted`` and ``failed`` must repeat exactly for
``SEED``; ``OTHER`` must generate different inputs.  Exits 1 on any
difference.  A claim is rechecked on a held-out seed with ``run.py
--seed``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SEED, OTHER = 1, 2
COUNT_SUFFIXES = (".calls", ".cells", ".cells_scanned", ".raised",
                  ".budget_spent")


def run(workload: str, seed: int, trace: int, hash_seed: str):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, env=env,
        timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    digest = next(ln.split()[-1] for ln in lines
                  if ln.startswith("inputs sha256"))
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if trace:
        counts = {k: v["value"] for k, v in metrics.items()
                  if k.endswith(COUNT_SUFFIXES)}
    else:
        counts = {"decided_share": metrics["decided_share"]["value"]}
    counts["attempted"] = result["attempted"]
    counts["failed"] = result["failed"]
    return digest, counts


def main() -> int:
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            d1, c1 = run(w, SEED, trace, "1")
            d2, c2 = run(w, SEED, trace, "2")
            d3, _ = run(w, OTHER, trace, "1")
            diff = sorted(k for k in c1 if c1[k] != c2.get(k))
            same = d1 == d2 and not diff
            fresh = d3 != d1
            ok = ok and same and fresh
            print(f"{w} trace={trace}: {len(c1)} counts "
                  f"{'repeat' if same else 'DIFFER ' + str(diff)}; "
                  f"seed {OTHER} inputs "
                  f"{'differ' if fresh else 'ARE THE SAME'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
