"""The repository benchmark: one command per workload run.

Run from the repository root::

    python3 perfbench/run.py --workload regen --seed 0 --seconds 45 --trace 0

Workloads (see README.md in this directory for why each exists):

* ``regen`` — Tables 7, 8 and 6 regenerated serially in one process;
* ``serve-cold`` — distinct simulate requests against ``repro serve
  --workers 2 --jobs 1`` from two closed-loop clients.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the traced run: it wraps each layer's entry points,
turns on the program's span tracer and counters, and reports the
per-layer metrics. Both print one line per metric, then one JSON object
as the last line of standard output. Every run checks the program's
outputs; a mismatch or a failed operation makes the exit code 1.

``--record`` prints the default-seed reference values of ``regen`` (the
digest and exact counts kept in reference.json) and exits.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("regen", "serve-cold")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None and not args.record:
        parser.error("--workload is required")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.record:
        import common
        import regen

        reference = regen.default_seed_pass(common.Result())
        print(json.dumps(reference, indent=2, sort_keys=True))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        if args.workload == "regen":
            import regen

            result = regen.run(
                seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                root=ROOT, workdir=workdir, reference=reference["regen"],
            )
        else:
            import serving

            result = serving.run(
                seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                root=ROOT, workdir=workdir,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        measured = result.metrics.get(name)
        if measured is None:
            if not args.trace:
                raise RuntimeError(f"{args.workload} did not measure {name}")
            value, note = 0.0, "layer not reached on this workload"
        else:
            if measured.unit != unit:
                raise RuntimeError(
                    f"{name}: measured in {measured.unit}, declared {unit}"
                )
            value, note = measured.value, measured.note
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<28s} {value:>14.6g} {unit:<6s} {note}")
    error_rate = result.failed / result.attempted if result.attempted else 1.0
    print(f"  {'error_rate':<28s} {error_rate:>14.6g} {'ratio':<6s} "
          f"{result.failed} of {result.attempted} operations failed")
    for line in result.context:
        print(f"  {line}")
    correct = result.mismatches == 0 and result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
