"""toporisk benchmark: time to a finished design on fixed workloads.

Run from the repository root:

    python3 perfbench/run.py --workload meanstd-2d-naive --seed 0 --seconds 30 --trace 0

Workloads are defined in `workloads.json` next to this file. With
`--trace 0` the run reports the end-to-end metrics (solve_s, setup_s,
peak_rss_mb, objective_ratio); with `--trace 1` it reports the per-layer
metrics of one traced solve, measured by wrapping the package's public
functions from outside. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it describes the environment and the checks that ran. A fuller
record, with the spans of a traced run, goes to `perfbench/out/`.

The package is imported from `src/` of the checkout this file sits in.
The script re-executes itself once with `PINNED_ENV` in the environment
and address randomization turned off for itself, so the settings hold
before the interpreter and numpy start. BLAS runs on one thread, so
results and timings do not depend on how many cores the machine has.
The rest makes the heap's layout repeat: with random addresses, a hash
seed of its own and huge pages granted or not, the peak resident memory
of the same solve ranged from 231 to 341 MB (mean-3d-svd, 2-core x86-64
Linux VM, glibc malloc); without, it repeats exactly.
Peak memory still depends on the heap's history, so it moves by a few
percent between scenario seeds of one workload.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
from pathlib import Path

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag, kept across execve
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _personality(persona: int = 0xFFFFFFFF) -> int:
    """Set this process's execution domain; the default only queries it."""
    personality = ctypes.CDLL(None, use_errno=True).personality
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    return personality(persona)


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python_hash_seed": os.environ["PYTHONHASHSEED"],
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "address_randomization": not _personality() & ADDR_NO_RANDOMIZE,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
    }


def main(argv=None) -> int:
    if not (SRC / "toporisk" / "__init__.py").is_file():
        print(f"toporisk sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    workloads = harness.load_workloads()
    args = parse_args(argv, workloads)
    raw = harness.make_config(workloads[args.workload], args.seed)
    if args.trace:
        run, metrics, tracer = harness.measure_traced(raw, f"{args.workload}-seed{args.seed}")
        spans = tracer.to_json()
    else:
        run, metrics = harness.measure(raw, args.seconds)
        spans = []

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "config": raw,
        "setup_windows": run.setup_windows,
        "solve_s": run.solve_s,
        "checks": run.checks,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "metrics": metrics, "spans": spans}) + "\n")

    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        current = _personality()
        if current != -1:
            _personality(current | ADDR_NO_RANDOMIZE)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, **PINNED_ENV})
    sys.exit(main())
