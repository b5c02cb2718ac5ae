"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload train-wide-mlp --seed 1 --seconds 20 --trace 0

Workloads: ``train-wide-mlp``, ``trace-replay``, ``serve-stream`` (see
``perfbench/workloads.py`` and ``BENCHMARK.json``).
``--trace 0`` prints the end-to-end metrics, measured untraced;
``--trace 1`` prints the per-layer metrics of a traced run plus the
tracing overhead, and writes the spans as Chrome trace-event JSON under
``.perfbench_work/``.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 when every output check passed, 1 when one failed, and 2 when
the program under test cannot be found (nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-wide-mlp", "trace-replay", "serve-stream")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import it.

    BLAS is pinned to one thread first: the workloads are single-threaded
    and a second BLAS thread on a shared 2-core host adds noise.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {src / 'repro'} is missing")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        print("perfbench: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    try:
        import_program()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2

    from perfbench.harness import run_benchmark

    out_dir = ROOT / ".perfbench_work"
    work_dir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json" if args.trace else None
    try:
        result = run_benchmark(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            work_dir,
            trace_path=trace_path,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in report_lines(result, args.seconds):
        print(line)
    return 0 if result.correct else 1


def report_lines(result, seconds: float) -> list[str]:
    """The human-readable report; its last line is the JSON result."""
    lines = [f"perfbench {result.workload} seed={result.seed} seconds={seconds:g} trace={int(result.trace)}"]
    for name, value in result.metrics.items():
        lines.append(f"metric {name} = {value:.6g} {result.units[name]}")
    lines += result.notes
    lines.append(f"failed/attempted = {result.failed}/{result.attempted}")
    for label, ok, detail in result.checks:
        lines.append(f"check {'ok  ' if ok else 'FAIL'} {label} ({detail})")
    lines.append(result.result_line())
    return lines


if __name__ == "__main__":
    sys.exit(main())
