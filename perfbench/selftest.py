"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Checks that wrong answers (wrong size, not fair, not a clique, search
not completed) are counted as failures; that every metric listed in
BENCHMARK.json is emitted by each workload at toy size, traced and
untraced, with every answer correct; and that the benchmark refuses to
run, without printing a result, outside a checkout of the repository.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pandas as pd

import answers
from run import OUT, ROOT, count_failures
from workloads import WORKLOADS


def check_answers() -> None:
    # Vertices 0..5 form a clique with 3 a and 3 b; 6 (a) hangs off 0.
    vertices = pd.DataFrame({"id": range(7), "attr": list("aaabbba")})
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)] + [(0, 6)]
    edges = pd.DataFrame(pairs, columns=["src", "dst"])
    right = [0, 1, 2, 3, 4, 5]
    cases = {
        "right": (right, True, None),
        "wrong size": ([0, 1, 3, 4], True, "size"),
        "not fair": ([0, 1, 2, 3], True, "not fair"),
        "not a clique": ([1, 2, 3, 4, 5, 6], True, "not a clique"),
        "not completed": (right, False, "did not complete"),
    }
    queries, inputs = [], []
    for index, (name, (clique, completed, expect)) in enumerate(cases.items()):
        why = answers.answer_failure(clique, completed, 6, vertices, edges, 2, 0)
        if (why is None) != (expect is None) or (expect and expect not in why):
            raise SystemExit(f"answer check, {name}: expected {expect!r}, got {why!r}")
        queries.append({"index": index, "clique": clique, "completed": completed})
        inputs.append((vertices, edges))
    queries.append({"index": len(queries), "error": "raised"})
    inputs.append((vertices, edges))
    failed = count_failures(queries, inputs, [6] * len(queries), 2, 0)
    if failed != len(cases):
        raise SystemExit(f"count_failures counted {failed}, expected {len(cases)}")
    oracle = answers.oracle_sizes([(vertices, edges)], 2, 0, OUT / "selftest-oracle", 1)
    if oracle != [6]:
        raise SystemExit(f"oracle gave {oracle}, expected [6]")
    print("answer check: ok")


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    if set(WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        raise SystemExit("BENCHMARK.json and workloads.py list different workloads")
    for trace in (0, 1):
        for name in WORKLOADS:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                raise SystemExit(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            got = set(res["metrics"])
            if got != want[trace] or not res["correct"] or res["failed"]:
                raise SystemExit(f"{name} trace={trace}: missing {want[trace] - got}, "
                                 f"extra {got - want[trace]}, result {res}")
            print(f"{name} trace={trace}: {len(got)} metrics, {res['attempted']} answers correct")


def check_refuses_outside_checkout() -> None:
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", next(iter(WORKLOADS)),
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise SystemExit(f"ran outside a checkout: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("outside a checkout: refused")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))  # for the oracle's worker processes
    check_answers()
    check_refuses_outside_checkout()
    check_metrics()
    print("selftest: ok")
