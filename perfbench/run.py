"""End-to-end benchmark of the CaJaDE reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer metrics of a traced run, whose spans
are also written as a Chrome trace under ``.bench_build/perfbench``).
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# The spawned serving worker re-imports this module as ``__mp_main__``,
# so the program's sources must be importable from module level.
sys.path.insert(0, str(SRC))

WORKLOADS = ("cold", "serve")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2

    import common
    import inputs
    import wl_cold
    import wl_serve

    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        common.install_wrappers(recorder)
    workload = {"cold": wl_cold, "serve": wl_serve}[args.workload]
    result = workload.run(args.seed, args.seconds, recorder)

    for error in result.errors:
        print(f"CHECK FAILED {error}", file=sys.stderr)
    for note in result.notes:
        print(f"NOTE {note}", file=sys.stderr)
    if recorder is not None:
        trace = inputs.WORK / f"trace-{args.workload}-{args.seed}.json"
        recorder.write_chrome(trace)
        print(recorder.table(), file=sys.stderr)
        for name, (value, unit) in result.metrics.items():
            print(f"traced {name} = {value:.4f} {unit}", file=sys.stderr)
        print(f"trace written to {trace}", file=sys.stderr)
        metrics = {
            name: {"value": float(result.layers.get(name, 0.0)), "unit": unit}
            for name, unit in common.PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in result.metrics.items()
        }
    print(json.dumps({
        "correct": not result.errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
