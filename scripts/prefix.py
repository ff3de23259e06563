"""One workload's measured prefix, run in process: CPU by query kind, one
digest over every report, and the machine's counts.

    python3 scripts/prefix.py --workload certify --seed 0 --repeat 5
    python3 scripts/prefix.py --workload search --seed 13 --repeat 3

Generates the query stream of ``perfbench/workloads.py`` for the workload
and seed, loaded without writing anything under ``perfbench/`` (as
``tests/test_report_digest.py`` loads it), and takes its first
``MEASURED_QUERIES`` queries from ``perfbench/run.py``.  Each run is a fresh
interpreter with ``PYTHONHASHSEED=0`` that imports ``jreal`` from this
checkout's ``src/`` and calls ``jreal.cli.main(argv)`` once per query, as the
benchmark's worker does, so caches carry over between queries and not
between runs.  Inputs sit under ``.perfbench/`` in the checkout and are
removed afterwards.

It prints:
  - the CPU (``time.process_time``) of each query kind and of the whole
    prefix, each the median over ``--repeat`` runs;
  - the sha256 over every query's exit code and report, with the input
    directory written as ``<work>``, as ``tests/test_report_digest.py``
    hashes them;
  - ``Machine.eval`` runs and the steps they charged, and ``apply_cached``
    hits and misses.
The counts come from one more run that wraps ``Machine.eval``, so the
wrapper costs no timed run anything.  Every run must give the same digest.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def _load(name: str):
    """perfbench/<name>.py as a module, with no bytecode written for it."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up while it is being defined
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def one_run(workload: str, seed: int, count: bool) -> dict:
    """The prefix in this process; CPU by kind, digest and, when count is
    set, the machine's counts."""
    os.chdir(ROOT)  # the queries name their inputs relative to the checkout
    sys.path.insert(0, str(ROOT / "src"))
    from jreal import cli, machine

    workloads = _load("workloads")
    run = _load("run")
    n = run.MEASURED_QUERIES[workload]
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix="prefix-", dir=ROOT / ".perfbench"))
    try:
        queries = workloads.generate(workload, seed, ROOT, work)[:n]
        cli.build_parser()
        runs = steps = 0
        if count:
            plain = machine.Machine.eval

            def counted(self, t):
                nonlocal runs, steps
                s0 = self.steps
                try:
                    return plain(self, t)
                finally:
                    runs += 1
                    steps += self.steps - s0

            machine.Machine.eval = counted
        info0 = machine.apply_cached.cache_info()
        cpu: dict[str, float] = collections.defaultdict(float)
        kinds: collections.Counter = collections.Counter()
        h = hashlib.sha256()
        rel = work.relative_to(ROOT).as_posix()
        for q in queries:
            out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
            c0 = time.process_time()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(q.argv)
            except Exception:  # a crash is an outcome, as in the benchmark
                rc = None
            cpu[q.kind] += time.process_time() - c0
            kinds[q.kind] += 1
            out.flush()
            text = out.buffer.getvalue().decode()
            text = text.replace(str(work), "<work>").replace(rel, "<work>")
            h.update(f"exit {rc}\n{text}".encode())
        info1 = machine.apply_cached.cache_info()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"queries": len(queries), "kinds": dict(kinds), "cpu": dict(cpu),
            "sha256": h.hexdigest(), "runs": runs, "steps": steps,
            "hits": info1.hits - info0.hits,
            "misses": info1.misses - info0.misses}


def spawn(workload: str, seed: int, mode: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--child", mode],
        cwd=ROOT, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("certify", "search", "limit"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeat", type=int, default=3)
    # one run in this interpreter, printed as JSON: "time" or "count"
    p.add_argument("--child", choices=("time", "count"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps(one_run(args.workload, args.seed, args.child == "count")))
        return 0
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    timed = [spawn(args.workload, args.seed, "time") for _ in range(args.repeat)]
    counted = spawn(args.workload, args.seed, "count")
    digests = {r["sha256"] for r in timed + [counted]}
    if len(digests) != 1:
        print(f"runs disagree on the digest: {sorted(digests)}", file=sys.stderr)
        return 1
    kinds = counted["kinds"]
    print(f"# {args.workload} seed {args.seed}: {counted['queries']} queries, "
          f"CPU the median of {args.repeat} runs")
    print(f"{'kind':24s} {'queries':>7s} {'cpu_s':>8s}")
    for kind in sorted(kinds, key=lambda k: -statistics.median(
            r["cpu"][k] for r in timed)):
        med = statistics.median(r["cpu"][kind] for r in timed)
        print(f"{kind:24s} {kinds[kind]:7d} {med:8.3f}")
    total = statistics.median(sum(r["cpu"].values()) for r in timed)
    print(f"{'total':24s} {counted['queries']:7d} {total:8.3f}")
    print(f"sha256 {counted['sha256']}")
    print(f"Machine.eval runs {counted['runs']}, charged steps {counted['steps']}")
    print(f"apply_cached hits {counted['hits']}, misses {counted['misses']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
