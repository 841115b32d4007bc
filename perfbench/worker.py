"""One pass of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/worker.py < job.json

The job (JSON on stdin) names the workload, its operations, the expected
values and, for a traced pass, the file that receives the spans.  The
worker times each operation, then checks its output outside the timed
part, and prints one JSON object: per-operation seconds, verdicts and
output digests, the peak RSS of this process and of its largest child,
and the library versions.  The harness (run.py) starts it with
PYTHONPATH pointing at the checkout's src/.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import symcanon
from symcanon import report, rank_strata

from tracing import Tracer

HERE = Path(__file__).resolve().parent


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def pk_key(p, k):
    return f"p{p}k{k}"


# ---------------------------------------------------------------------------
# audit-all: classify, emit, diff for each stored table (verify-paper --all)
# ---------------------------------------------------------------------------

def audit(job, tracer):
    expected = job["expected"]["audit"]
    stored = report.list_fixtures()
    results = []
    for i, (p, k) in enumerate(job["ops"]):
        tracer.op = i
        t0 = time.perf_counter()
        try:
            rep = symcanon.classify(symcanon.FieldSpec(p), k)
            text = report.emit(rep, "structured")
            found = report.diff(rep, report.load_fixture(p, k))
        except Exception:  # a crash fails this operation, not the pass
            results.append(crashed(i, t0))
            continue
        seconds = time.perf_counter() - t0
        digest = sha256(text)
        errata = sorted(d.erratum_id for d in found if d.classification == report.ERRATUM_SUSPECTED)
        mismatches = sum(d.classification == report.MISMATCH for d in found)
        key = pk_key(p, k)
        why = []
        if (p, k) not in stored:
            why.append("pair missing from list_fixtures()")
        if digest != expected["report_sha256"].get(key):
            why.append("structured report SHA-256 differs from the recorded one")
        if errata != expected["errata"].get(key):
            why.append(f"erratum ids {errata} differ from the recorded ones")
        if mismatches:
            why.append(f"{mismatches} MISMATCH")
        results.append(op_result(i, seconds, why, digest, errata=errata))
    return results


# ---------------------------------------------------------------------------
# general-k3 / general-k4: general_rank_strata per case
# ---------------------------------------------------------------------------

def general(job, tracer):
    expected = job["expected"]["general_sizes"]
    results = []
    for i, (p, k) in enumerate(job["ops"]):
        tracer.op = i
        field = symcanon.FieldSpec(p)
        t0 = time.perf_counter()
        try:
            g = symcanon.general_rank_strata(field, k)
        except Exception:  # a crash fails this operation, not the pass
            results.append(crashed(i, t0))
            continue
        seconds = time.perf_counter() - t0
        why = []
        if list(g.sizes) != expected.get(pk_key(p, k)):
            why.append(f"layer sizes {list(g.sizes)} differ from the recorded ones")
        # rank(X) <= rank_S(X) on every symmetric tensor with a decomposition
        for r, codes in enumerate(rank_strata.symmetric_rank_strata(field, k).strata):
            ranks = [g.rank_of_code(c) for c in codes.tolist()]
            if any(rank is None or rank > r for rank in ranks):
                why.append(f"a symmetric tensor of rank_S {r} has a larger general rank")
        results.append(op_result(i, seconds, why, sha256(json.dumps(list(g.sizes)))))
    return results


# ---------------------------------------------------------------------------
# query-cli: closed loop of CLI subprocesses, one at a time
# ---------------------------------------------------------------------------

def query(job):
    env = dict(os.environ, PYTHONPATH=job["src"])
    outputs = []
    t_loop = time.perf_counter()
    for i, q in enumerate(job["ops"]):
        args = [q["cmd"], "--p", str(q["p"]), "--order", str(q["k"]), "--tensor", q["tensor"]]
        if job.get("spans"):
            argv = [sys.executable, str(HERE / "cli_launcher.py"), f"{job['spans']}.{i}", str(i)] + args
        else:
            argv = [sys.executable, "-m", "symcanon.cli"] + args
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=job["root"], capture_output=True, text=True)
        outputs.append((time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr))
    loop_seconds = time.perf_counter() - t_loop

    tables = {}
    results = []
    for i, (q, (seconds, code, out, err)) in enumerate(zip(job["ops"], outputs)):
        p, k = q["p"], q["k"]
        if q["cmd"] in ("rank", "decompose") and (p, k) not in tables:
            tables[(p, k)] = rank_table(p, k, job["expected"]["rank_table_sha256"].get(pk_key(p, k)))
        try:
            why = check_query(q, code, out, tables.get((p, k)))
        except ValueError:
            why = [f"unparsable output {out!r}"]
        if why and err:
            why.append("stderr: " + err.strip().splitlines()[-1])
        digest = sha256(json.dumps([code, out]))
        results.append(op_result(i, seconds, why, digest))
    return results, loop_seconds


def strata_of(p, k):
    """The symmetric strata as lists of full codes, and their SHA-256."""
    s = rank_strata.symmetric_rank_strata(symcanon.FieldSpec(p), k)
    strata = [c.tolist() for c in s.strata]
    return strata, sha256(json.dumps({"strata": strata, "undecomposable": s.undecomposable.tolist()}))


def rank_table(p, k, expected_sha):
    """{full code: symmetric rank} from the library's strata, or None when
    their hash differs from the recorded one."""
    strata, digest = strata_of(p, k)
    if digest != expected_sha:
        return None
    return {c: r for r, codes in enumerate(strata) for c in codes}


def full_entries(compact, k):
    """Flattened entries of the symmetric tensor with these compact digits:
    entry t lies in the class of its number of subscripts equal to 2."""
    return [compact[bin(t).count("1")] for t in range(1 << k)]


def code_of(entries, p):
    code = 0
    for v in entries:
        code = code * p + v
    return code


def orbit_codes(entries, p, k):
    """Codes of the diagonal GL2(F_p) orbit, computed independently of symcanon."""
    r = np.arange(p)
    a, b, c, d = (v.ravel() for v in np.meshgrid(r, r, r, r, indexing="ij"))
    keep = (a * d - b * c) % p != 0
    g = np.stack([a[keep], b[keep], c[keep], d[keep]], axis=1).reshape(-1, 2, 2)
    n = g.shape[0]
    y = np.broadcast_to(np.array(entries, dtype=np.int64).reshape((2,) * k), (n,) + (2,) * k)
    for mode in range(k):
        y = np.moveaxis(np.einsum("nij,nj...->ni...", g, np.moveaxis(y, mode + 1, 1)) % p, 1, mode + 1)
    place = p ** np.arange((1 << k) - 1, -1, -1, dtype=np.int64)
    return np.unique(y.reshape(n, -1) @ place), n


def check_query(q, code, out, table):
    """Reasons the CLI answer is wrong; empty when it is right.  Raises
    ValueError on output that does not parse."""
    p, k, cmd = q["p"], q["k"], q["cmd"]
    entries = full_entries([int(s) for s in q["tensor"][2:].split(",")], k)
    if cmd in ("rank", "decompose"):
        if table is None:
            return ["rank table SHA-256 differs from the recorded one"]
        rank = table.get(code_of(entries, p))
        if rank is None:  # no symmetric decomposition: exit 4 is the right answer
            return [] if code == 4 and not out else [f"expected exit 4, got {code}"]
        if code != 0:
            return [f"exit {code}"]
        if cmd == "rank":
            return [] if out.strip() == str(rank) else [f"rank {out.strip()!r}, expected {rank}"]
        lines = out.strip().splitlines()
        if not lines or not lines[-1].endswith("matches input"):
            return [f"decompose printed {out!r}"]
        vectors = [tuple(int(s) for s in line.split(",")) for line in lines[:-1]]
        total = [0] * (1 << k)
        for v1, v2 in vectors:
            for t in range(1 << k):
                w = bin(t).count("1")
                total[t] = (total[t] + pow(v1, k - w, p) * pow(v2, w, p)) % p
        why = []
        if total != entries:
            why.append("witness vectors do not re-sum to the tensor")
        if len(vectors) != rank:
            why.append(f"{len(vectors)} witness vectors, rank is {rank}")
        return why
    if code != 0:
        return [f"exit {code}"]
    orbit, group = orbit_codes(entries, p, k)
    if cmd == "canon":
        canon = code_of([int(s) for s in out.strip().split(",")], p)
        return [] if canon == orbit[0] else ["canonical form is not the orbit minimum"]
    if cmd == "orbit":
        return [] if int(out) == orbit.size else [f"orbit {out.strip()}, expected {orbit.size}"]
    return [] if int(out) * orbit.size == group else [f"stabilizer {out.strip()} * orbit != |GL2|"]


# ---------------------------------------------------------------------------
# recording the expected values at a trusted commit
# ---------------------------------------------------------------------------

def record(job):
    audit_ops = audit(job, Tracer())
    general_sizes = {pk_key(p, k): list(symcanon.general_rank_strata(symcanon.FieldSpec(p), k).sizes)
                     for p, k in job["general"]}
    tables = {pk_key(p, k): strata_of(p, k)[1] for p, k in job["ops"]}
    return {
        "audit": {
            "report_sha256": {pk_key(p, k): r["digest"] for (p, k), r in zip(job["ops"], audit_ops)},
            "errata": {pk_key(p, k): r["errata"] for (p, k), r in zip(job["ops"], audit_ops)},
        },
        "general_sizes": general_sizes,
        "rank_table_sha256": tables,
    }


def crashed(i, t0):
    return op_result(i, time.perf_counter() - t0, [traceback.format_exc()], None)


def op_result(i, seconds, why, digest, **extra):
    return {"op": i, "seconds": seconds, "ok": not why, "why": why, "digest": digest, **extra}


def main():
    job = json.load(sys.stdin)
    if not Path(symcanon.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        sys.exit(f"symcanon imported from {symcanon.__file__}, not from {job['src']}")
    if job["workload"] == "record":
        print(json.dumps(record(job)))
        return
    tracer = Tracer()
    # traced queries are wrapped inside each CLI process, by cli_launcher.py
    traced_here = bool(job.get("spans")) and job["workload"] != "query-cli"
    absent = tracer.install() if traced_here else []
    loop_seconds = None
    if job["workload"] == "audit-all":
        ops = audit(job, tracer)
    elif job["workload"] == "query-cli":
        ops, loop_seconds = query(job)
    else:
        ops = general(job, tracer)
    if traced_here:
        tracer.dump(job["spans"], absent)
    print(json.dumps({
        "ops": ops,
        "loop_seconds": loop_seconds,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # ru_maxrss is in KiB
        "child_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "numpy": np.__version__,
        "fft_workers": getattr(rank_strata, "_FFT_WORKERS", None),
    }))


if __name__ == "__main__":
    main()
