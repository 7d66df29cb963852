"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload join-dirty --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with the library at
its defaults; ``--trace 1`` runs the workload again with spans recorded
around every call into each layer and prints the per-layer metrics.  The
report lines come first (environment, sizes, per-kind latencies with their
sample counts, failures); the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Traced runs also
write their spans as JSON lines under ``.perfbench/``.  See README.md for
what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from repro.join.kernels import resolve_kernel  # noqa: E402
from tracing import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, run_workload, scratch_dir  # noqa: E402


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def environment(workload: str, seed: int, seconds: int, trace: bool, sizes: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "filter_kernel": resolve_kernel("auto"),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "sizes": sizes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    recorder = SpanRecorder()
    outcome = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), recorder=recorder
    )
    env = environment(args.workload, args.seed, args.seconds, bool(args.trace), outcome.sizes)
    print("environment " + json.dumps(env, sort_keys=True))
    for note in outcome.notes:
        print(note)
    if args.trace:
        path = scratch_dir() / f"trace-{args.workload}-seed{args.seed}.jsonl"
        recorder.write_jsonl(path)
        print(f"spans: {len(recorder.spans)} written to {path.relative_to(ROOT)}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    failed_frac = outcome.failed / max(outcome.attempted, 1)
    print(f"failed_frac = {failed_frac:.6g} ({outcome.failed} of {outcome.attempted})")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
