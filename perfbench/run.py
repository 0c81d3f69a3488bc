"""Benchmark of the gated clock router; see ``perfbench/README.md``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload default-r5 --seed 0 --seconds 10 --trace 0

Prints one context line (machine, workload config, samples) and, as
the last line of standard output, the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Exits 2 without a result when the checkout has no
``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="0 = canonical trace")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no package at %s to benchmark" % (SRC / "repro"), file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("--workload must be one of: %s" % ", ".join(WORKLOADS))
    result, context = bench.run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
