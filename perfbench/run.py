"""Benchmark of the ``exclusion`` CLI: a closed loop, one job at a time.

Run one workload:

    python3 perfbench/run.py --workload steady-exact --seed 1 --seconds 24 \
        --trace 0

from the root of a checkout.  Every job is a fresh ``python -m exclusion.cli``
process, because that is what a CLI user pays, and it keeps any in-process
cache from showing gains that no real invocation would see.  Jobs come in
whole cycles (see workloads.py); a run measures as many cycles as fit in
``--seconds`` at the workload's nominal cycle time, at least one.  Each
job's output is checked exactly after the job has ended, outside the timed
region.  A job that exits nonzero, times out or prints a wrong output
counts as failed; ``correct`` in the result is false only when some job
exited 0 with a wrong output.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics.  With ``--trace 1`` every job runs twice in a row,
untraced and then under traced_cli.py; the traced runs give the per-layer
metrics and the pair gives the tracing overhead.  A result file with every
job's latency, status and output sha256 is written to perfbench/results/.

Compare two sets of result files:

    python3 perfbench/run.py --compare perfbench/results/A perfbench/results/B
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path[:0] = [HERE, SRC]

import oracles  # noqa: E402
import workloads  # noqa: E402

# A run must end within 180 s: no job starts after LAST_START_S, and a job
# still running at KILL_AT_S (or after JOB_TIMEOUT_S) is killed and failed.
JOB_TIMEOUT_S = 100.0
LAST_START_S = 120.0
KILL_AT_S = 150.0
SETUP_SPAWNS = 9

E2E_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
             "job_tail_s": "s", "ok_ratio": "ratio", "peak_rss_mb": "MB"}


class Process:
    """A finished CLI process: latency, exit code, max RSS and output."""

    def __init__(self, argv, env, timeout):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        err = []
        reader = threading.Thread(
            target=lambda: err.append(proc.stderr.read()))
        reader.start()
        expired = threading.Event()

        def kill():
            expired.set()
            proc.kill()

        killer = threading.Timer(timeout, kill)
        killer.start()
        try:
            self.out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            reader.join()
            proc.stdout.close()
            proc.stderr.close()
        self.seconds = time.perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.timed_out = expired.is_set()
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.err = err[0] if err else b""


def _env(**extra):
    """The job environment: the caller's, with src on the path, bytecode
    caching on (an installed package has its .pyc files, so a user does not
    compile the package on every invocation) and Python's default
    int-to-str digit limit."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing exclusion.cli."""
    argv = [sys.executable, "-c", "import exclusion.cli"]
    Process(argv, _env(), JOB_TIMEOUT_S)       # fill the bytecode cache first
    times = []
    for _ in range(SETUP_SPAWNS):
        job = Process(argv, _env(), JOB_TIMEOUT_S)
        if job.code != 0:
            raise RuntimeError("cannot import exclusion.cli: "
                               + job.err.decode(errors="replace"))
        times.append(job.seconds)
    return statistics.median(times)


def run_job(spec, deadline, traced=False):
    timeout = max(1.0, min(JOB_TIMEOUT_S, deadline - time.perf_counter()))
    if not traced:
        argv = [sys.executable, "-m", "exclusion.cli", *spec.argv]
        return Process(argv, _env(), timeout), None
    trace_path = os.path.join(RESULTS, f".trace-{os.getpid()}.json")
    env = _env(PERFBENCH_TRACE_OUT=trace_path,
               PERFBENCH_SPAWN_T=repr(time.monotonic()))
    argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), *spec.argv]
    job = Process(argv, env, timeout)
    try:
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        os.remove(trace_path)
    except (OSError, ValueError):
        trace = None
    return job, trace


def percentile(values, p):
    """Linearly interpolated percentile; percentile(v, 50) is the median."""
    s = sorted(values)
    pos = (len(s) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail(values):
    """(percentile, value): the highest whole percentile with at least ten
    samples above it, or the median when there are fewer than 21 samples."""
    n = len(values)
    p = 99
    while p > 50 and n - 1 - math.floor((n - 1) * p / 100) < 10:
        p -= 1
    return p, percentile(values, p)


def run_context(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha(), "loadavg_start": os.getloadavg()}


def git_sha():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cycle_count(args) -> int:
    """Cycles in a run: as many nominal cycles as fit in --seconds, at least
    one; halved when every job also runs traced.  The count depends on
    --seconds only, so two commits run identical job lists for a seed."""
    n = max(1, round(args.seconds / workloads.NOMINAL_CYCLE_S[args.workload]))
    return max(1, n // 2) if args.trace else n


def execute(args):
    """Run the workload's cycles of jobs; return the records of every job,
    the traces of the traced runs and the elapsed time."""
    t_start = time.perf_counter()
    hard_deadline = t_start + KILL_AT_S
    records, traces = [], []
    stream = workloads.cycles(args.workload, args.seed)
    for cycle_no in range(cycle_count(args)):
        for spec in next(stream):
            if time.perf_counter() - t_start > LAST_START_S:
                return records, traces, time.perf_counter() - t_start
            job, _ = run_job(spec, hard_deadline)
            rec = {"cycle": cycle_no, "cell": spec.cell, "argv": spec.argv,
                   "seconds": job.seconds, "code": job.code,
                   "rss_mb": job.rss_mb,
                   "sha256": hashlib.sha256(job.out).hexdigest(),
                   "out": job.out, "spec": spec, "timed_out": job.timed_out,
                   "stderr_tail": job.err[-400:].decode(errors="replace")}
            if args.trace:
                tjob, trace = run_job(spec, hard_deadline, traced=True)
                rec["traced_seconds"] = tjob.seconds
                rec["traced_same_output"] = tjob.out == job.out
                if trace is not None:
                    traces.append(trace)
            records.append(rec)
    return records, traces, time.perf_counter() - t_start


def judge(records):
    """Check every output (outside the timed region); mark failures."""
    for rec in records:
        spec = rec.pop("spec")
        out = rec.pop("out")
        if rec["timed_out"]:
            problem = "timeout"
        elif rec["code"] != 0:
            problem = f"exit code {rec['code']}"
        else:
            problem = oracles.check(spec.check, spec.params, out)
            rec["wrong_output"] = problem is not None
        if rec.get("traced_same_output") is False and problem is None:
            problem = "traced output differs from untraced output"
            rec["wrong_output"] = True
        rec["failed"] = problem is not None
        rec["problem"] = problem
        if spec.check == "reports" and problem is None:
            rec["checks"] = len(json.loads(out)["checks"])
            rec["skipped_pole"], rec["skipped_unsupported"] = \
                oracles.skip_reasons(out)
        if rec["code"] == 0:
            rec.pop("stderr_tail")


def end_to_end(records, elapsed, setup_s):
    lat = [r["seconds"] for r in records]
    ok = [r for r in records if not r["failed"]]
    p_tail, v_tail = tail(lat)
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": len(ok) / elapsed,
        "job_p50_s": percentile(lat, 50),
        "job_tail_s": v_tail,
        "ok_ratio": len(ok) / len(records),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }
    detail = {"jobs": len(records), "failed": len(records) - len(ok),
              "failed_ratio": (len(records) - len(ok)) / len(records),
              "job_tail_percentile": p_tail, "job_tail_n": len(lat),
              "elapsed_s": elapsed}
    return metrics, detail


PER_LAYER = {     # name -> unit
    "tensor.exact_nullspace.calls": "count",
    "tensor.exact_nullspace.self_s": "s",
    "tensor.exact_nullspace.dim_sum": "count",
    "tensor.exact_nullspace.nnz_in": "count",
    "tensor.sparse_mul.calls": "count",
    "tensor.sparse_mul.self_s": "s",
    "tensor.embed.calls": "count",
    "tensor.embed.self_s": "s",
    "markov.build_markov.self_s": "s",
    "markov.steady_state_exact.self_s": "s",
    "markov.observables.self_s": "s",
    "models.r_matrix.calls": "count",
    "models.r_matrix.self_s": "s",
    "models.k_matrix.calls": "count",
    "models.k_matrix.self_s": "s",
    "transfer.build_transfer.calls": "count",
    "transfer.build_transfer.self_s": "s",
    "transfer.check.self_s": "s",
    "verifier.run_model_suite.self_s": "s",
    "verifier.checks": "count",
    "verifier.skipped_pole": "count",
    "verifier.skipped_unsupported": "count",
    "sampling.sample_points.self_s": "s",
    "sampling.accept_ratio": "ratio",
    "ansatz.rd_representation.calls": "count",
    "ansatz.rd_representation.self_s": "s",
    "ansatz.N_final": "count",
    "ansatz.contract.self_s": "s",
    "ansatz.useful_ratio": "ratio",
    "ansatz.rd_profile_rows.self_s": "s",
    "scalars.format.self_s": "s",
    "cli.self_s": "s",
    "proc.startup_s": "s",
    "trace.overhead_ratio": "ratio",
}


def per_layer(records, traces):
    """Per-layer metrics, each a mean per traced job (ratios excepted)."""
    n = max(1, len(traces))
    names, counters = {}, {}
    for t in traces:
        for name, agg in t["names"].items():
            acc = names.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += agg["calls"]
            acc["self_s"] += agg["self_s"]
        for key, value in t["counters"].items():
            counters[key] = counters.get(key, 0) + value
    out = {}
    for metric, unit in PER_LAYER.items():
        name, _, field_ = metric.rpartition(".")
        if name in names and field_ in ("calls", "self_s"):
            out[metric] = names[name][field_] / n
        elif field_ in ("calls", "self_s"):
            out[metric] = 0.0
    out["tensor.exact_nullspace.dim_sum"] = counters.get("nullspace_dim", 0) / n
    out["tensor.exact_nullspace.nnz_in"] = counters.get("nullspace_nnz", 0) / n
    # Check counts come from the JSON the verify/transfer jobs print.
    reports = [r for r in records if "checks" in r]
    for field_ in ("checks", "skipped_pole", "skipped_unsupported"):
        out[f"verifier.{field_}"] = \
            sum(r[field_] for r in reports) / max(1, len(reports))
    calls = counters.get("model_safe_calls", 0)
    out["sampling.accept_ratio"] = \
        counters.get("points_returned", 0) / calls if calls else 0.0
    runs = counters.get("truncation_runs", 0)
    out["ansatz.N_final"] = \
        counters.get("N_final_sum", 0) / runs if runs else 0.0
    total = counters.get("truncation_s", 0.0)
    out["ansatz.useful_ratio"] = \
        counters.get("final_round_s", 0.0) / total if total else 0.0
    out["proc.startup_s"] = statistics.median(
        [t["startup_s"] for t in traces]) if traces else 0.0
    untraced = sum(r["seconds"] for r in records)
    out["trace.overhead_ratio"] = \
        sum(r["traced_seconds"] for r in records) / untraced - 1
    return {k: out[k] for k in PER_LAYER}


def write_result(args, context, records, metrics, detail):
    directory = args.results or os.path.join(RESULTS, "latest")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{args.workload}-seed{args.seed}"
                                   f"-trace{args.trace}.json")
    doc = {"context": context, "metrics": metrics, "detail": detail,
           "jobs": records}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return path


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "exclusion", "cli.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    context = run_context(args)
    setup_s = measure_setup()
    records, traces, elapsed = execute(args)
    judge(records)
    e2e, detail = end_to_end(records, elapsed, setup_s)
    detail["end_to_end"] = e2e
    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]}
                   for k, v in per_layer(records, traces).items()}
        detail["traced_jobs"] = len(traces)
        edges = {}
        for t in traces:
            for edge, agg in t["edges"].items():
                acc = edges.setdefault(edge, {"calls": 0, "total_s": 0.0})
                acc["calls"] += agg["calls"]
                acc["total_s"] += agg["total_s"]
        detail["trace_edges"] = edges
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in e2e.items()}
    path = write_result(args, context, records, metrics, detail)
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"jobs {detail['jobs']}  failed {detail['failed']}  "
          f"failed_ratio {detail['failed_ratio']:.4g}  "
          f"tail p{detail['job_tail_percentile']} of n={detail['job_tail_n']}"
          f"  result {os.path.relpath(path, ROOT)}")
    wrong = [r for r in records if r.get("wrong_output")]
    for r in records:
        if r["failed"]:
            print(f"FAILED {r['cell']}: {r['problem']}")
    print(json.dumps({"correct": not wrong, "attempted": len(records),
                      "failed": detail["failed"], "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=None,
                   help="directory for the result file "
                        "(default perfbench/results/latest)")
    p.add_argument("--compare", nargs=2, metavar="DIR",
                   help="compare two directories of result files")
    args = p.parse_args(argv)
    if args.compare:
        import compare
        return compare.main(*args.compare)
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
