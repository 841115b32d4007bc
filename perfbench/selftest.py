"""Self-test of the benchmark harness; takes under a minute.

    python3 perfbench/selftest.py

Runs every workload in smoke mode, restricted to (p, k) in {(2,3), (3,3)},
untraced and traced, and checks that:
  - BENCHMARK.json declares exactly the metrics run.py emits;
  - every end-to-end and every per-layer metric is emitted with its unit,
    with failed_frac printed and 0 operations failed;
  - a corrupted expected hash drives failed_frac above 0;
  - a trace point naming a missing function is reported as absent, and the
    metrics fed by it are left out instead of the run crashing.
"""

import json
import subprocess
import sys
import types

import run
from tracing import Tracer


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def bench(*args):
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--smoke", "--seed", "1",
                           "--seconds", "0", *args], capture_output=True, text=True, cwd=run.ROOT)
    check(proc.returncode == 0, f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def declared_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([m["name"] for m in spec["workloads"]] == list(run.WORKLOADS), "workload list")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
          "end_to_end metrics differ from run.END_TO_END")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == [(n, u, b) for n, u, b, _ in run.PER_LAYER], "per_layer metrics differ from run.PER_LAYER")
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]}


def main():
    end_to_end, per_layer = declared_metrics()

    for workload in run.WORKLOADS:
        for trace, declared in (("0", end_to_end), ("1", per_layer)):
            text, result = bench("--workload", workload, "--trace", trace)
            emitted = {n: m["unit"] for n, m in result["metrics"].items()}
            check(emitted == declared, f"{workload} trace={trace}: metrics or units differ from BENCHMARK.json")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} trace={trace}: {result['failed']} of {result['attempted']} operations failed")
            check(any(line.startswith("failed_frac 0 1 ") for line in text), f"{workload}: no failed_frac line")
            if trace == "0":
                printed = {line.split()[0] for line in text}
                check(printed >= set(end_to_end), f"{workload}: an end-to-end metric is not printed")
        print(f"ok   {workload}: every metric emitted with its unit, 0 failed")

    expected = json.loads(run.EXPECTED.read_text())
    expected["audit"]["report_sha256"]["p2k3"] = "0" * 64
    run.OUT.mkdir(exist_ok=True)
    corrupted = run.OUT / "selftest-expected.json"
    corrupted.write_text(json.dumps(expected))
    text, result = bench("--workload", "audit-all", "--trace", "0", "--expected", str(corrupted))
    corrupted.unlink()
    check(result["failed"] > 0 and not result["correct"], "a corrupted report hash went unnoticed")
    check(not any(line.startswith("failed_frac 0 ") for line in text), "failed_frac stayed 0")
    print(f"ok   corrupted expected hash: {result['failed']} of {result['attempted']} operations failed")

    module = types.ModuleType("perfbench_selftest_fake")
    module.action_stack = lambda field, k: None
    sys.modules[module.__name__] = module
    points = [(module.__name__, "action_stack", "action_stack", None),
              (module.__name__, "no_such_function", "classify", None)]
    absent = Tracer().install(points)
    check(absent == [f"{module.__name__}.no_such_function"], f"absent trace points reported as {absent}")
    metrics = {name: 1.0 for name, _, _, _ in run.PER_LAYER}
    present = run.present_metrics(metrics, ["symcanon.classify.action_stack"])
    dropped = set(metrics) - set(present)
    check("group_action.action_stack.s.p2k3" in dropped and "classify.orbit_sweep.self_s.p2k3" in dropped,
          "metrics fed by an absent trace point were kept")
    check("report.emit.s" in present and "classify.orbits.p2k3" in present,
          "metrics not fed by the absent trace point were dropped")
    lost = run.present_metrics(metrics, [], [{"name": "emit", "counts": {"lost": "TypeError"}}])
    check("report.emit.bytes" not in lost and "report.diff.s" in lost, "metrics with lost counts were kept")
    print(f"ok   missing wrapped name reported absent; {len(dropped)} dependent metrics left out")


if __name__ == "__main__":
    main()
