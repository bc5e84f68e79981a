"""MaxRFC benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload sparse-peel --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Every query is one call to ``repro.core.maxrfc.max_rfc(g, k, delta)``
with default arguments, on a graph no other query of the run uses. The
run sets up one graph, times the first (cold) query, then sets up and
queries further graphs until ``--seconds`` have passed. Every answer is
checked against the brute-force oracle after the timed part.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced warm queries and prints the per-layer metrics (see
``tracing.py``). The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the full record with its provenance. Everything the run
writes goes under ``.bench_out/`` in the checkout. The exit code is
non-zero when any answer is wrong.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import os
import resource
import shlex
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# Two task threads leave the Python driver and the JVM's own threads room
# on a 4-core host; the jobs are too small to gain from more.
MASTER = f"local[{min(2, os.cpu_count() or 1)}]"
DRIVER_MEMORY = "2g"
ORACLE_WORKERS = 4
PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def _adopt_orphans() -> None:
    """Become the parent of every descendant that is orphaned during the run.

    Spark's Python worker daemon and multiprocessing's resource tracker
    end a moment after the process that started them; adopted, they
    stay this process's children, so ``_stop_children`` can wait for them.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me, found = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(stat.parent.name))
    return found


def _reap() -> None:
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass


def _stop_children() -> None:
    """Stop every process left under this one and wait until each has ended.

    Children get 5 s to end by themselves, then SIGTERM and 10 s more,
    then SIGKILL.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()  # it ignores SIGTERM; it ends when its pipe closes
    start = time.monotonic()
    sent = None
    while kids := _children():
        waited = time.monotonic() - start
        sig = signal.SIGKILL if waited > 15 else signal.SIGTERM if waited > 5 else None
        if sig is not None and sig != sent:
            for pid in kids:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, sig)
            sent = sig
        if waited > 45:
            raise RuntimeError(f"processes {kids} did not end after SIGKILL")
        time.sleep(0.05)
        _reap()


def _units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _spark_env() -> None:
    """Point the Spark driver and its scratch files at the checkout.

    Must run before pyspark is imported: the master and driver memory
    are read when the JVM starts.
    """
    tmp = OUT / "tmp"
    local = OUT / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master {MASTER}",
        f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.showConsoleProgress=false",
        # Keep every job and stage of a run visible to statusTracker().
        "--conf spark.ui.retainedJobs=100000",
        "--conf spark.ui.retainedStages=100000",
        f"--conf {shlex.quote('spark.driver.extraJavaOptions=-Djava.io.tmpdir=' + str(tmp))}",
        "pyspark-shell",
    ])


def _provenance(spark, args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "spark_master": spark.sparkContext.master,
        "shuffle_partitions": int(spark.conf.get("spark.sql.shuffle.partitions")),
        "driver_memory": DRIVER_MEMORY,
        "seed": args.seed,
        "seconds": args.seconds,
        "toy": args.toy,
    }


def _jvm_peak_rss_mb(sc) -> float:
    pid = sc._gateway.proc.pid
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc status")


def measure(spark, wl, args) -> dict:
    from repro.core.maxrfc import max_rfc
    from repro.graph.builder import from_pandas

    import answers
    from tracing import Tracer, query_layers

    tracer = Tracer(spark.sparkContext) if args.trace else None
    queries: list[dict] = []
    inputs = []

    def run_query(index: int, traced: bool) -> dict:
        t0 = time.perf_counter()
        vertices, edges = wl.graph(args.seed, index, toy=args.toy)
        t1 = time.perf_counter()
        g = from_pandas(spark, vertices, edges).checkpointed()
        t2 = time.perf_counter()
        inputs.append((vertices, edges))
        q = {"index": index, "n": len(vertices), "m": len(edges), "traced": traced,
             "setup_s": t2 - t0, "ingest_s": t2 - t1}
        try:
            if traced:
                with tracer.installed(), tracer.span("query", spark=True) as sp:
                    res = max_rfc(g, wl.k, wl.delta)
                q["span"] = sp.id
            else:
                group = f"perfbench-query-{index}"
                spark.sparkContext.setJobGroup(group, "untraced query")
                t0 = time.perf_counter()
                res = max_rfc(g, wl.k, wl.delta)
                q["seconds"] = time.perf_counter() - t0
                spark.sparkContext.setLocalProperty("spark.jobGroup.id", None)
                q["spark_jobs"] = len(spark.sparkContext.statusTracker().getJobIdsForGroup(group))
            q["clique"] = [int(v) for v in res.clique]
            q["completed"] = bool(res.search.completed)
        except Exception:  # a failed query is counted, not fatal
            traceback.print_exc()
            q["error"] = traceback.format_exc(limit=3)
        queries.append(q)
        return q

    first = run_query(0, traced=False)
    # A fixed number of warm queries per workload: the JVM keeps getting
    # faster for several queries after the cold one, so every run must
    # time the same query positions for runs to be comparable.
    count = math.ceil(args.seconds / wl.query_s)
    for index in range(1, 1 + max(count, 2 if args.trace else 1)):
        run_query(index, traced=bool(args.trace) and index % 2 == 0)

    oracle = answers.oracle_sizes(inputs, wl.k, wl.delta, OUT / "oracle", ORACLE_WORKERS)
    failed = count_failures(queries, inputs, oracle, wl.k, wl.delta)

    warm = [q for q in queries[1:] if not q["traced"] and "seconds" in q]
    if "seconds" not in first or not warm:
        raise RuntimeError("no successful untraced query to time")
    metrics = {
        "setup_s": (statistics.median(q["setup_s"] for q in queries), len(queries)),
        "query_s_p50": (statistics.median(q["seconds"] for q in warm), len(warm)),
        "edges_per_s": (statistics.median(q["m"] / q["seconds"] for q in warm), len(warm)),
    }
    if args.trace:
        traced = [q for q in queries[1:] if q["traced"] and "span" in q]
        per_query = [query_layers(tracer, q["span"], q["oracle"]) for q in traced]
        layer = {name: statistics.median(pq[name] for pq in per_query) for name in per_query[0]}
        layer["builder.ingest_s"] = statistics.median(q["ingest_s"] for q in queries)
        layer["cold.first_query_s"] = first["seconds"]
        layer["trace.overhead_frac"] = layer["trace.query_s"] / metrics["query_s_p50"][0] - 1
        layer["spark.jvm_peak_rss_mb"] = _jvm_peak_rss_mb(spark.sparkContext)
        layer["driver.py_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples = {"builder.ingest_s": len(queries), "cold.first_query_s": 1,
                   "spark.jvm_peak_rss_mb": 1, "driver.py_peak_rss_mb": 1}
        metrics = {name: (value, samples.get(name, len(per_query))) for name, value in layer.items()}
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([vars(sp) for sp in tracer.spans]))
    units = _units()
    return {
        "workload": wl.name,
        "k": wl.k,
        "delta": wl.delta,
        "queries": [{key: val for key, val in q.items() if key != "clique"} for q in queries],
        "metrics": {name: {"value": v, "unit": units[name], "samples": n} for name, (v, n) in metrics.items()},
        "attempted": len(queries),
        "failed": failed,
    }


def count_failures(queries: list[dict], inputs, oracle: list[int], k: int, delta: int) -> int:
    """Check every query's answer; record why each failed one failed."""
    import answers

    failed = 0
    for q, (vertices, edges), size in zip(queries, inputs, oracle, strict=True):
        q["oracle"] = size
        why = q.get("error") or answers.answer_failure(
            q["clique"], q["completed"], size, vertices, edges, k, delta)
        if why:
            failed += 1
            q["failure"] = why
            print(f"query {q['index']} failed: {why}", file=sys.stderr)
    return failed


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    _spark_env()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from jobs._session import get_session

    try:
        t0 = time.perf_counter()
        spark = get_session(f"perfbench-{wl.name}")
        session_s = time.perf_counter() - t0
        spark.sparkContext.setLogLevel("ERROR")
        gateway = spark.sparkContext._gateway.proc
        try:
            record = measure(spark, wl, args)
            record["provenance"] = _provenance(spark, args)
        finally:
            try:
                spark.stop()
            finally:
                gateway.stdin.close()  # the gateway JVM exits when its stdin closes
                gateway.wait(timeout=60)
    finally:
        _stop_children()
    record["provenance"]["session_start_s"] = session_s
    for name, m in record["metrics"].items():
        print(f"{wl.name}  {name} = {m['value']:.6g} {m['unit']} (samples={m['samples']})")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in record["metrics"].items()},
    }))
    return 0 if record["failed"] == 0 else 1


def run_all(args) -> int:
    """Run every workload, each in a fresh process, and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            merged["correct"] = False
            continue
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{m}": v for m, v in res["metrics"].items()})
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "jobs" / "_session.py").is_file():
        print(f"perfbench: {ROOT} is not a checkout of the repository "
              "(src/repro and jobs/_session.py are missing)", file=sys.stderr)
        return 2
    _adopt_orphans()
    # A SIGTERM unwinds like an exception, so every child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    finally:
        _stop_children()


if __name__ == "__main__":
    sys.exit(main())
