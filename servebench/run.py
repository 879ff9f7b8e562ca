"""Served-path benchmark of the SPOT detection service.

Runs one workload with one seed in this process and prints every metric
with its unit, the points attempted and failed, and the verdict of the
correctness checks; the last line of standard output is one JSON object::

    python3 servebench/run.py --workload open-10d --seed 1 --seconds 10 \\
        --trace 0

``--trace 1`` runs the same workload with spans around every layer's entry
points and prints the per-layer metrics, beside the traced run's own
end-to-end metrics (``traced.*``), so the tracing overhead shows.  Spans and
a record of the run are written under ``servebench-out/`` at the root of the
checkout.  See ``servebench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "servebench-out"

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"servebench: the program's sources (src/repro) are not in "
              f"{ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from servebench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"servebench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("servebench: --seconds must be positive", file=sys.stderr)
        return 2
    from servebench.bench import run_workload

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT, prefix=f"tmp-{args.workload}-"))
    try:
        report = run_workload(WORKLOADS[args.workload], seed=args.seed,
                              seconds=args.seconds, trace=bool(args.trace),
                              scratch=scratch, out=OUT)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in report["lines"]:
        print(line)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    started = time.monotonic()
    code = main()
    print(f"servebench: finished in {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    sys.exit(code)
