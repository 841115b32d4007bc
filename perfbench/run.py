"""Benchmark harness for symcanon.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the package in <checkout>/src, checks every
output, and prints each metric by name and unit.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Full results, the environment stamp and the spans go to
<checkout>/.perfbench/.  perfbench/README.md describes the workloads, the
metrics and which layer metric should move which end-to-end metric.

Other modes: --smoke restricts every workload to (p, k) in {(2,3), (3,3)}
(used by selftest.py); --record rewrites expected.json from the package
at hand, to be run only on a commit whose outputs are trusted.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import TRACE_POINTS, load_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 1209
HOLDOUT_SEED = 5021  # kept unused while tuning; re-check claims on it

WORKLOADS = ("audit-all", "query-cli", "general-k3", "general-k4")
# the 11 stored tables, in report.list_fixtures() order
PAIRS = ((2, 3), (3, 3), (5, 3), (7, 3), (11, 3), (13, 3), (17, 3), (2, 4), (3, 4), (5, 4), (7, 4))
GENERAL = {"general-k3": ((2, 3), (3, 3), (5, 3), (7, 3)), "general-k4": ((2, 4), (3, 4))}
GENERAL_CASES = GENERAL["general-k3"] + GENERAL["general-k4"]
SMOKE_PAIRS = ((2, 3), (3, 3))
STRATA_COMMANDS = ("rank", "decompose")
ACTION_COMMANDS = ("canon", "orbit", "stabilizer")
COMMANDS = STRATA_COMMANDS + ACTION_COMMANDS

SETUP_SAMPLES = 5   # fresh interpreters per run for setup_s and import.*
RUN_LIMIT_S = 170   # a run is abandoned (no result) after this long

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
)


def key(p, k):
    return f"p{p}k{k}"


# name, unit, better, span names the metric is computed from
PER_LAYER = (
    [("import.symcanon_s", "s", "lower", ()), ("import.scipy_fft_s", "s", "lower", ())]
    + [m for p, k in PAIRS for m in (
        (f"rank_strata.symmetric_rank_strata.s.{key(p, k)}", "s", "lower", ("symmetric_rank_strata",)),
        (f"rank_strata.sym.candidates.{key(p, k)}", "count", "lower", ("symmetric_rank_strata",)),
        (f"rank_strata.sym.fresh.{key(p, k)}", "count", "higher", ("symmetric_rank_strata",)),
    )]
    + [("rank_strata.symmetric_rank.ms", "ms", "lower", ("symmetric_rank",)),
       ("rank_strata.decompose.ms", "ms", "lower", ("decompose",))]
    + [m for p, k in GENERAL_CASES for m in (
        (f"rank_strata.general_rank_strata.s.{key(p, k)}", "s", "lower", ("general_rank_strata",)),
        (f"rank_strata.general.peak_rss_mb.{key(p, k)}", "MiB", "lower", ()),
    )]
    + [m for p, k in PAIRS for m in (
        (f"group_action.action_stack.s.{key(p, k)}", "s", "lower", ("action_stack",)),
        (f"group_action.action_stack.mb.{key(p, k)}", "MiB", "lower", ("action_stack",)),
    )]
    + [(f"group_action.{n}.ms", "ms", "lower", (n,)) for n in ("canonical_form", "orbit", "stabilizer_size")]
    + [m for p, k in PAIRS for m in (
        (f"classify.orbit_sweep.self_s.{key(p, k)}", "s", "lower",
         ("classify", "symmetric_rank_strata", "action_stack")),
        (f"classify.orbits.{key(p, k)}", "count", "higher", ("classify",)),
    )]
    + [("report.emit.s", "s", "lower", ("emit",)), ("report.diff.s", "s", "lower", ("diff",)),
       ("report.load_fixture.s", "s", "lower", ("load_fixture",)),
       ("report.emit.bytes", "bytes", "lower", ("emit",))]
    + [(f"cli.{c}.p50_ms", "ms", "lower", ("cli.main",)) for c in COMMANDS]
    + [(f"trace.overhead_s.{w}", "s", "lower", ()) for w in WORKLOADS]
)


class BenchError(Exception):
    """The run cannot produce a result."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_process(argv, deadline, stdin=None):
    """Run argv to completion in its own process group; kill the group and
    raise when the run's deadline passes first."""
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT, env=child_env(),
                            start_new_session=True)
    try:
        out, err = proc.communicate(stdin, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1]} did not finish within the {RUN_LIMIT_S} s run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited {proc.returncode}:\n{err[-3000:]}")
    return out, err


def run_worker(job, deadline):
    out, _ = run_process([sys.executable, str(HERE / "worker.py")], deadline, json.dumps(job))
    return json.loads(out.splitlines()[-1])


def setup_seconds(deadline):
    """Median time from launching a fresh interpreter until `import symcanon` returns."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()  # CLOCK_MONOTONIC: one clock for all processes
        out, _ = run_process([sys.executable, "-c", "import time, symcanon; print(time.monotonic())"], deadline)
        samples.append(float(out) - t0)
    return statistics.median(samples)


def import_seconds(deadline):
    """Median cumulative import times of symcanon and scipy.fft (python -X importtime)."""
    samples = {"symcanon": [], "scipy.fft": []}
    for _ in range(SETUP_SAMPLES):
        _, err = run_process([sys.executable, "-X", "importtime", "-c", "import symcanon"], deadline)
        seen = {}
        for line in err.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cumulative, name = line[len("import time:"):].split("|")
                if name.strip() in samples and cumulative.strip().isdigit():
                    seen[name.strip()] = int(cumulative) / 1e6
        for name in samples:
            samples[name].append(seen.get(name, 0.0))  # not imported: no time spent
    return {f"import.{n.replace('.', '_')}_s": statistics.median(v) for n, v in
            (("symcanon", samples["symcanon"]), ("scipy.fft", samples["scipy.fft"]))}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def make_ops(workload, seed, smoke):
    """The operations of one pass; query literals come from the seed alone."""
    pairs = SMOKE_PAIRS if smoke else PAIRS
    if workload == "audit-all":
        return [list(pk) for pk in pairs]
    if workload in GENERAL:
        return [list(pk) for pk in (SMOKE_PAIRS if smoke else GENERAL[workload])]
    # Per pair, one query that builds the strata (rank or decompose) and one
    # that builds the action stack (canon, orbit or stabilizer), commands drawn
    # from the seed.  Stratifying by cost keeps the work of a pass the same on
    # every seed: a p = 17 strata query alone costs as much as five others.
    rng = random.Random(seed)
    combos = [(rng.choice(cls), p, k) for p, k in pairs for cls in (STRATA_COMMANDS, ACTION_COMMANDS)]
    rng.shuffle(combos)
    return [{"cmd": c, "p": p, "k": k,
             "tensor": "c:" + ",".join(str(rng.randrange(p)) for _ in range(k + 1))}
            for c, p, k in combos]


def run_pass(workload, ops, expected, deadline, spans_dir=None):
    """One pass in a fresh interpreter; a traced general pass runs each case
    in its own process, so that each case has its own peak RSS."""
    job = {"workload": workload, "expected": expected, "root": str(ROOT), "src": str(SRC)}
    if workload in GENERAL and spans_dir:
        results = []
        for i, op in enumerate(ops):
            r = run_worker({**job, "ops": [op], "spans": str(spans_dir / f"case{i}.jsonl")}, deadline)
            r["ops"][0]["op"] = i
            r["ops"][0]["rss_mb"] = r["rss_mb"]
            results.append(r)
        worker = results[-1]
        merged = [r["ops"][0] for r in results]
        rss = max(r["rss_mb"] for r in results)
    else:
        spans = str(spans_dir / "pass.jsonl") if spans_dir else None
        worker = run_worker({**job, "ops": ops, "spans": spans}, deadline)
        merged = worker["ops"]
        rss = worker["child_rss_mb"] if workload == "query-cli" else worker["rss_mb"]
    wall = worker["loop_seconds"] if workload == "query-cli" else sum(o["seconds"] for o in merged)
    return {"ops": merged, "wall_s": wall, "rss_mb": rss,
            "numpy": worker["numpy"], "fft_workers": worker["fft_workers"]}


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workload, passes, setup_s):
    """A query is one CLI command on query-cli.  On the other workloads the
    user makes one request for the whole job (an audit of every table, the
    rank check over every case), so there a query is one pass."""
    if workload == "query-cli":
        latencies = [1000 * o["seconds"] for p in passes for o in p["ops"]]
    else:
        latencies = [1000 * p["wall_s"] for p in passes]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
        "query_p50_ms": nearest_rank(latencies, 0.5),
        "query_p90_ms": nearest_rank(latencies, 0.9),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """{(pid, id): duration minus the time covered by direct children}.

    Raises BenchError when a child span does not lie inside its parent, in
    which case self time would not account for the parent span."""
    index = {(s["pid"], s["id"]): s for s in spans}
    covered = {k: 0.0 for k in index}
    for s in spans:
        if s["parent"] is None:
            continue
        parent = index[(s["pid"], s["parent"])]
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            raise BenchError(f"span {s['name']} lies outside its parent {parent['name']}")
        covered[(s["pid"], s["parent"])] += duration(s)
    return {k: duration(s) - covered[k] for k, s in index.items()}


def median_or_zero(values):
    """A layer the workload never called reads 0."""
    return statistics.median(values) if values else 0.0


def layer_metrics(workload, spans, case_rss, overhead_s, imports):
    """Every PER_LAYER metric; None where a span lacks the counts it needs."""
    named = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)

    def of(name, p=None, k=None):
        return [s for s in named.get(name, ()) if p is None or
                (s["counts"].get("p"), s["counts"].get("k")) == (p, k)]

    def count(name, p, k, field):
        found = of(name, p, k)
        return found[0]["counts"].get(field) if found else 0

    own = self_times(spans)
    m = dict(imports)
    for p, k in PAIRS:
        pk = key(p, k)
        m[f"rank_strata.symmetric_rank_strata.s.{pk}"] = median_or_zero(
            [duration(s) for s in of("symmetric_rank_strata", p, k)])
        m[f"rank_strata.sym.candidates.{pk}"] = count("symmetric_rank_strata", p, k, "candidates")
        m[f"rank_strata.sym.fresh.{pk}"] = count("symmetric_rank_strata", p, k, "fresh")
        # the stack is cached per process, so only its first build is cold
        first = {}
        for s in sorted(of("action_stack", p, k), key=lambda s: s["start"]):
            first.setdefault(s["pid"], s)
        m[f"group_action.action_stack.s.{pk}"] = median_or_zero([duration(s) for s in first.values()])
        stack_bytes = count("action_stack", p, k, "bytes")
        m[f"group_action.action_stack.mb.{pk}"] = None if stack_bytes is None else stack_bytes / 2**20
        m[f"classify.orbit_sweep.self_s.{pk}"] = median_or_zero(
            [own[(s["pid"], s["id"])] for s in of("classify", p, k)])
        m[f"classify.orbits.{pk}"] = count("classify", p, k, "orbits")
    for p, k in GENERAL_CASES:
        m[f"rank_strata.general_rank_strata.s.{key(p, k)}"] = median_or_zero(
            [duration(s) for s in of("general_rank_strata", p, k)])
        m[f"rank_strata.general.peak_rss_mb.{key(p, k)}"] = case_rss.get((p, k), 0.0)
    for name in ("symmetric_rank", "decompose"):
        m[f"rank_strata.{name}.ms"] = 1000 * median_or_zero([duration(s) for s in of(name)])
    for name in ("canonical_form", "orbit", "stabilizer_size"):
        m[f"group_action.{name}.ms"] = 1000 * median_or_zero([duration(s) for s in of(name)])
    for name in ("emit", "diff", "load_fixture"):
        m[f"report.{name}.s"] = sum(duration(s) for s in of(name))
    m["report.emit.bytes"] = sum(s["counts"].get("bytes", 0) for s in of("emit"))
    for c in COMMANDS:
        m[f"cli.{c}.p50_ms"] = 1000 * median_or_zero(
            [duration(s) for s in of("cli.main") if s["counts"].get("cmd") == c])
    for w in WORKLOADS:
        m[f"trace.overhead_s.{w}"] = overhead_s if w == workload else 0.0
    return m


def present_metrics(metrics, absent_points, spans=()):
    """The metrics that can be trusted: none computed from a span name that a
    trace point could not feed (it was absent), none whose counts were lost."""
    missing = {name for module, attr, name, _ in TRACE_POINTS if f"{module}.{attr}" in absent_points}
    missing.update(s["name"] for s in spans if "lost" in s["counts"])
    return {name: metrics[name] for name, _, _, deps in PER_LAYER
            if metrics[name] is not None and not missing.intersection(deps)}


def collect_spans(spans_dir):
    spans, absent = [], set()
    for path in sorted(spans_dir.iterdir()):
        s, a = load_spans(path)
        spans.extend(s)
        absent.update(a)
    return spans, absent


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def git_commit():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "symcanon").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def package_version(name):
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(pass_info):
    return {
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "ram_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": pass_info["numpy"],
        "scipy": package_version("scipy"),
        # -1: scipy.fft uses every core in the affinity set (general workloads)
        "scipy_fft_workers": pass_info["fft_workers"],
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def measure(args, expected, deadline):
    ops = make_ops(args.workload, args.seed, args.smoke)
    # a fresh checkout has no bytecode cache yet; users do not pay for that
    run_process([sys.executable, "-c", "import symcanon"], deadline)
    if not args.trace:
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < args.seconds:
            passes.append(run_pass(args.workload, ops, expected, deadline))
        return passes, end_to_end(args.workload, passes, setup_seconds(deadline)), set()

    # traced: an untraced pass, then the same operations traced
    spans_dir = OUT / f"spans-{args.workload}-{args.seed}.d"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    base = run_pass(args.workload, ops, expected, deadline)
    traced = run_pass(args.workload, ops, expected, deadline, spans_dir)
    for a, b in zip(base["ops"], traced["ops"]):
        if a["digest"] != b["digest"]:
            b["ok"] = False
            b["why"].append("traced output differs from the untraced output")
    spans, absent_points = collect_spans(spans_dir)
    shutil.rmtree(spans_dir)
    with open(OUT / f"spans-{args.workload}-{args.seed}.jsonl", "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
    case_rss = {tuple(op): o["rss_mb"] for op, o in zip(ops, traced["ops"])} if args.workload in GENERAL else {}
    metrics = layer_metrics(args.workload, spans, case_rss, traced["wall_s"] - base["wall_s"],
                            import_seconds(deadline))
    present = present_metrics(metrics, absent_points, spans)
    return [base, traced], present, (set(metrics) - set(present)) | set(absent_points)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="only (p, k) in {(2,3), (3,3)}")
    parser.add_argument("--expected", type=Path, default=EXPECTED, help="recorded expected values")
    parser.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = parser.parse_args(argv)
    if not (SRC / "symcanon" / "__init__.py").is_file():
        raise BenchError(f"no symcanon package under {SRC}")
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.record:
        job = {"workload": "record", "ops": [list(pk) for pk in PAIRS], "general": GENERAL_CASES,
               "expected": {"audit": {"report_sha256": {}, "errata": {}}},
               "root": str(ROOT), "src": str(SRC)}
        args.expected.write_text(json.dumps(run_worker(job, time.monotonic() + 600), indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.expected}")
        return
    if args.workload is None:
        parser.error("--workload is required")
    expected = json.loads(args.expected.read_text())
    OUT.mkdir(exist_ok=True)

    passes, metrics, absent = measure(args, expected, deadline)
    ops = [o for p in passes for o in p["ops"]]
    failed = [o for o in ops if not o["ok"]]
    units = {n: u for n, u in END_TO_END} if not args.trace else {n: u for n, u, _, _ in PER_LAYER}
    env = environment(passes[-1])

    print(f"symcanon benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} operations={len(ops)}" + (" smoke" if args.smoke else ""))
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    if not args.trace:
        samples = f"{len(ops)} queries" if args.workload == "query-cli" else f"{len(passes)} passes"
        print(f"  (setup_s: median of {SETUP_SAMPLES} fresh interpreters; query_p50_ms and "
              f"query_p90_ms: nearest rank over {samples})")
    print(f"failed_frac {len(failed) / len(ops):.6g} 1 ({len(failed)} of {len(ops)} operations)")
    for o in failed[:10]:
        print(f"  failed op {o['op']}: {'; '.join(o['why'])[:500]}")
    if absent:
        print("absent " + " ".join(sorted(absent)))

    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"seed": args.seed, "smoke": args.smoke, "env": env, "absent": sorted(absent),
         "operations": ops, **result}, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
