#!/usr/bin/env python3
"""The repository benchmark: one command, two workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload gowalla-stream --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of the workload; ``--trace 1``
runs the same work untraced and then traced, and prints the per-layer
metrics plus the tracing overhead, writing the spans to
``perfbench/out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a failed
correctness check exits non-zero.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("gowalla-stream", "nasa-stream")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: {ROOT / 'src' / 'repro'} is missing; run from the root "
            f"of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from fqbench import stream
    from fqbench.inputs import Seeds

    try:
        result, tracer = stream.run(
            args.workload, Seeds(args.seed), args.seconds, bool(args.trace)
        )
    except Exception:
        traceback.print_exc()
        return 1
    if tracer is not None:
        out = ROOT / "perfbench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}.json")
    for name, metric in result.metrics.items():
        print(f"{name:36s} {metric['value']:.6g} {metric['unit']}")
    for note in result.notes:
        print(f"note: {note}")
    for problem in result.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": result.metrics,
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
