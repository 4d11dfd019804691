#!/usr/bin/env python3
"""Benchmark of the satalign CLI: one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Workloads: train, peft_large, gradcheck, eval (see harness.py); ``--workload
all`` runs each in a fresh process, one after the other, and prints every
metric by name with its unit. With ``--trace 0`` a run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it runs every command
untraced and then traced, checks that both runs wrote the same outputs, and
reports per-layer metrics and the tracing overhead. The last line of stdout
is the result as JSON; a record of the run with its environment and raw
samples goes to ``perfbench/.results/``.

Seed 1 is the default; seed 7919 is kept back to confirm a claimed gain on
inputs it was not tuned on.

BLAS is pinned to one thread before numpy is imported: the package is meant to
run on one core, and the pin keeps other cores free of benchmark noise.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_blas() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_satalign():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "satalign" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no satalign sources under {src}")
    sys.path.insert(0, str(src))
    import satalign
    if Path(satalign.__file__).resolve().parent != (src / "satalign").resolve():
        raise SystemExit(f"perfbench: satalign imported from {satalign.__file__}, "
                         f"not from {src}")


def _git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(loadavg: tuple) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "loadavg_start": list(loadavg),
    }


def parse_args(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv), [w["name"] for w in spec["workloads"]]


def run_all(args, workloads) -> int:
    """Every workload in a fresh process; print each metric with its unit."""
    results = {}
    for workload in workloads:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"{workload}\tcorrect\t{result['correct']}\t{result['failed']} failed "
              f"of {result['attempted']}")
        for metric, value in sorted(result["metrics"].items()):
            print(f"{workload}\t{metric}\t{value['value']!r}\t{value['unit']}")
        results[workload] = result
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args, workloads = parse_args(argv)
    if args.workload == "all":
        return run_all(args, workloads)
    began = time.perf_counter()
    pin_blas()
    import_satalign()
    import harness
    import_s = time.perf_counter() - began

    result, record, _ = harness.run(args.workload, args.seed, args.seconds,
                                    bool(args.trace), ROOT, import_s=import_s)
    record["environment"] = environment(loadavg)
    record["result"] = result
    results = ROOT / "perfbench" / ".results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    for failure in record["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"error_rate {record['error_rate']!r} failed/attempted "
          f"({result['failed']} of {result['attempted']})")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
