#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at toy sizes.

Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload untraced and traced on toy inputs and checks that

1. every metric BENCHMARK.json names is reported, with its unit, and the
   outputs pass their checks;
2. the seed argument changes the generated inputs, and the same seed
   reproduces them;
3. in a traced run, the self times of each command's spans add up to the
   command's traced wall time, within that command's tracing overhead.

Exits 0 when all checks pass, 1 otherwise.
"""

import json
import shutil
import sys

import run

# Time a traced command spends outside its root span (patching the wrap
# points, capturing output) is overhead too; allow this much of it even when
# the untraced run happened to be the slower one.
OVERHEAD_FLOOR_S = 0.002


def _metric_units(entries) -> dict:
    return {m["name"]: m["unit"] for m in entries}


def check_metrics(harness, spec, failures) -> list:
    """Run each workload both ways; return the traced runs."""
    traced = []
    for workload in harness.WORKLOADS:
        for trace in (False, True):
            result, _, bench = harness.run(workload, seed=1, seconds=0.0, trace=trace,
                                           root=run.ROOT, sizes=harness.TOY)
            kind = "per_layer" if trace else "end_to_end"
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = _metric_units(spec[kind])
            if got != want:
                missing = sorted(set(want.items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(want.items()))
                failures.append(f"{workload} {kind}: missing {missing}, unexpected {extra}")
            if any(v["value"] is None for v in result["metrics"].values()):
                failures.append(f"{workload} {kind}: metric without a value")
            if not result["correct"]:
                failures.append(f"{workload} trace={trace}: {bench.failures}")
            if trace:
                traced.append(bench)
    return traced


def check_seed(harness, failures) -> None:
    digests = []
    for seed in (1, 2, 1):
        work = run.ROOT / "perfbench" / ".work" / f"selftest-seed{seed}"
        shutil.rmtree(work, ignore_errors=True)
        bench = harness.Bench("eval", seed, 0.0, work, harness.TOY)
        try:
            bench.write_configs()
            bench.setup()
            digests.append(harness.sha256_path(bench.root))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    if digests[0] == digests[1]:
        failures.append("seeds 1 and 2 generated the same inputs")
    if digests[0] != digests[2]:
        failures.append("seed 1 generated different inputs on a second run")


def check_self_times(bench, failures) -> None:
    tracer = bench.tracer
    own = tracer.self_seconds()
    roots = [c.span for c in bench.commands] + [len(tracer.spans)]
    for command, end in zip(bench.commands, roots[1:]):
        total_self = sum(own[command.span:end])
        gap = command.traced_s - total_self
        overhead = abs(command.traced_s - command.untraced_s) + OVERHEAD_FLOOR_S
        if not 0.0 <= gap <= overhead:
            failures.append(f"{bench.workload} {command.label}: self times sum to "
                            f"{total_self:.6f}s of {command.traced_s:.6f}s traced "
                            f"(overhead {overhead:.6f}s)")


def main() -> int:
    run.pin_blas()
    run.import_satalign()
    import harness

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    if [w["name"] for w in spec["workloads"]] != list(harness.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from the harness's")
    if _metric_units(spec["end_to_end"]) != {n: u for n, u, _ in harness.END_TO_END}:
        failures.append("BENCHMARK.json end_to_end metrics differ from the harness's")
    if ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            != [(n, u, b) for n, u, b, _ in harness.PER_LAYER]):
        failures.append("BENCHMARK.json per_layer metrics differ from the harness's")
    for bench in check_metrics(harness, spec, failures):
        check_self_times(bench, failures)
    check_seed(harness, failures)

    for failure in failures:
        print(f"selftest: FAIL {failure}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
