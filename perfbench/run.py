"""Benchmark entry point.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 20 --trace 0

Runs one workload against the ``shardsim`` sources in ``src/`` of the
checkout this file sits in, checks the outputs, and prints one JSON object
as the last line of standard output: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Traced runs also
write their spans to ``.perfbench-out/``.  Exits 2 without a result when
the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    if not (SRC / "shardsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no shardsim sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import shardsim

    if Path(shardsim.__file__).resolve().parent != SRC / "shardsim":
        sys.exit(f"perfbench: imported shardsim from {shardsim.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from perfbench import bench, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    wl = bench.Workload(args.workload, args.seed)
    if args.trace:
        report = bench.traced_run(wl, ROOT / ".perfbench-out")
    else:
        report = bench.timed_run(wl, args.seconds)

    for line in report.info:
        print(line)
    for name in report.failures:
        print(f"check failed: {name}")
    print(
        json.dumps(
            {
                "correct": report.failed == 0,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
