"""The jreal benchmark: seeded workloads, closed loop, one client.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the root of a checkout; the program is imported from ``src/``.
The workloads, metric names, units and run length come from
``BENCHMARK.json`` at the root, the only place they are written down.
With ``--trace 0`` a run runs the workload's query stream in one warm
worker for ``--seconds``, checking every report against the answers
workloads.py expects; throughput, CPU per query, peak RSS and the decided
ratio are taken over the stream's first MEASURED_QUERIES queries, and
set-up time is the trimmed mean of the worker's own start and of the
fresh starts it times every few seconds during the run.
With ``--trace 1`` it replays the workload's fixed traced prefix with the
layer functions wrapped, then the same prefix untraced, and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a table of every figure, including the error, wrong and unknown ratios.
Inputs go under ``.perfbench/`` in the checkout and are removed after the
run; the run record, with every failed query's message, stays there.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# figures printed in the table beside the gated metrics
UNITS.update(latency_p50_ms="ms", latency_p90_ms="ms", error_ratio="ratio",
             wrong_ratio="ratio", sampled_wrong_ratio="ratio",
             unknown_ratio="ratio", queries="count", setup_samples="count",
             measured_queries="count", host_scale="ratio",
             host_scale_run="ratio")

# queries in the traced prefix; sized to finish well inside run_seconds
TRACE_QUERIES = {"certify": 120, "search": 60, "limit": 80}
# queries the gated figures of an untraced run are taken over (see
# check.end_to_end): whole rounds of the stream, two thirds to three
# quarters of what the slowest 40-second run on a shared two-core host
# got through
MEASURED_QUERIES = {"certify": 8 * 22, "search": 22 * 11, "limit": 10 * 19}
# a worker that outlives its time limit by this much is killed
GRACE_S = 60


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # string hashing decides some iteration orders, and so step counts
    env["PYTHONHASHSEED"] = "0"
    return env


def _start(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for it to be ready; (process, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, GRACE_S)
        raise RuntimeError("worker failed to start: "
                           + (proc.stderr.read().strip() or "no output"))
    return proc, ready


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        raise RuntimeError("worker did not finish in time") from None
    return err


def run_worker(work: pathlib.Path, name: str, queries, seconds: float,
               max_queries: int, trace: bool) -> tuple[dict, float]:
    """Run queries in one fresh worker; (result, set-up seconds)."""
    spec_path = work / f"{name}.spec.json"
    out_path = work / f"{name}.result.json"
    spec_path.write_text(json.dumps({
        "queries": [q.argv for q in queries],
        "seconds": seconds,
        "max_queries": max_queries,
        "trace": trace,
    }))
    proc, ready = _start([str(spec_path), str(out_path)])
    err = _finish(proc, seconds + GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {err.strip()}")
    return json.loads(out_path.read_text()), ready


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: pathlib.Path) -> dict:
    """One run: outcomes, metrics and the record to keep."""
    import check
    import workloads

    queries = workloads.generate(workload, seed, ROOT, work)
    if not trace:
        result, ready = run_worker(work, "run", queries, seconds,
                                   len(queries), False)
        outcomes = check.judge_all(queries, result["records"], ROOT)
        figures = check.end_to_end(result, outcomes,
                                   [ready, *result["probes_s"]],
                                   MEASURED_QUERIES[workload])
    else:
        import spans
        cap = TRACE_QUERIES[workload]
        result, _ = run_worker(work, "traced", queries, seconds, cap, True)
        done = len(result["records"])
        plain, _ = run_worker(work, "plain", queries, seconds, done, False)
        k = min(done, len(plain["records"]))
        traced_s = sum(r["lat"] for r in result["records"][:k])
        plain_s = sum(r["lat"] for r in plain["records"][:k])
        outcomes = check.judge_all(queries, result["records"], ROOT)
        figures = spans.layer_metrics(
            result["trace"], result["wall_s"], result["cache_hits"],
            result["cache_misses"], done, traced_s / plain_s - 1)
    ran = queries[:len(result["records"])]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "figures": figures,
        "queries": [{"argv": q.argv, "kind": q.kind, "outcome": o,
                     "note": note, "lat": r["lat"]}
                    for q, r, (o, note) in zip(ran, result["records"], outcomes)],
    }
    return {"figures": figures, "outcomes": outcomes, "record": record}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    base = ROOT / ".perfbench"
    work = base / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        got = measure(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (base / f"record-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(got["record"], indent=1))
    figures = got["figures"]
    print(f"# workload {workload} ({'traced' if trace else 'untraced'})")
    for name, value in figures.items():
        print(f"{name:34s} {value:>16.6g} {UNITS[name]}")
    gated = SPEC["per_layer" if trace else "end_to_end"]
    outcomes = [o for o, _ in got["outcomes"]]
    return {
        "correct": "wrong" not in outcomes,
        "attempted": len(outcomes),
        "failed": outcomes.count("error"),
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                    for m in gated},
    }


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names + ["all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "jreal" / "__init__.py").is_file():
        print(f"perfbench: no jreal sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    chosen = names if args.workload == "all" else [args.workload]
    results = {w: run_one(w, args.seed, args.seconds, bool(args.trace))
               for w in chosen}
    line = results[chosen[0]] if len(chosen) == 1 else results
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
