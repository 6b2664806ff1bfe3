"""Run one benchmark workload and print its metrics as the last line of stdout.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload train --seed 1 --seconds 10 --trace 0

With `--trace 0` the last line carries the end-to-end metrics declared in
BENCHMARK.json, timings scaled to a reference machine speed; with
`--trace 1` it carries the per-layer metrics of one traced unit of work.
The line before it is a JSON report with the machine, the generated
inputs, the unscaled timings and any failed checks.  See
benchmarks/README.md for the workloads and metrics.
"""

import os

# numpy reads these when it is first imported: one BLAS thread, so the
# load really is a single thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "efbtag" / "__init__.py").is_file():
        print(f"efbtag sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        ctx = workloads.Context(
            seed=args.seed, seconds=args.seconds, workdir=Path(tmp), trace=bool(args.trace)
        )
        values = workloads.WORKLOADS[args.workload](ctx)
    tally = ctx.tally
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # a timing is a [scaled, raw] pair; the metric is the scaled figure
    metrics, raw = {}, {}
    for name, unit in declared.items():
        if name not in values:
            tally.fail(f"declared metric {name} was not measured")
            continue
        value = np.atleast_1d(values[name])
        metrics[name] = {"value": float(value[0]), "unit": unit}
        if value.size == 2:
            raw[name] = float(value[1])

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "inputs": ctx.stats,
        "speed": ctx.meter.summary(),
        "raw_metrics": raw,
        "errors_by_kind": {k: tally.rates(k) for k in tally.errors},
        "problems": tally.problems,
    }
    print(json.dumps(report))
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
