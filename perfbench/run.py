"""Run one benchmark workload against the mwetag sources of this checkout.

    python3 perfbench/run.py --workload ga-recovery --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines
before it give every metric by name and unit for people.  Work files, the
full result with the environment record, and a traced run's spans go to
``.perfbench-work/<workload>-seed<n>-trace<t>/`` under the checkout root.

``python3 perfbench/run.py --write-spec`` rewrites ``BENCHMARK.json`` from
the workload and metric tables in ``harness.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> None:
    """Cap every BLAS thread pool at the core count; must run before numpy
    is imported."""
    nproc = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def import_sources() -> None:
    """Put this checkout's ``src`` first on the path and import from it; the
    benchmark never measures an installed copy."""
    src = ROOT / "src"
    if not (src / "mwetag" / "__init__.py").is_file():
        sys.exit(f"error: no mwetag sources at {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    import mwetag

    if Path(mwetag.__file__).resolve().parent != (src / "mwetag").resolve():
        sys.exit(f"error: imported mwetag from {mwetag.__file__}, not from {src}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    args = parser.parse_args()

    cap_blas_threads()
    import_sources()
    from perfbench import harness

    if args.write_spec:
        text = json.dumps(harness.spec(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    work = ROOT / ".perfbench-work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    shutil.rmtree(work / "inputs")
    finite = all(math.isfinite(m["value"]) for m in result["metrics"].values())
    record = {**result, "workload": args.workload, "seed": args.seed, "env": harness.environment()}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if not finite:
        print("error: some metric could not be measured", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
