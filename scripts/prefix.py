"""One workload's measured prefix, run in process: CPU by query kind, one
digest over every report, and the machine's counts.

    python3 scripts/prefix.py --workload certify --seed 0 --repeat 5
    python3 scripts/prefix.py --workload search --seed 13 --repeat 3
    python3 scripts/prefix.py --workload limit --repeat 5 --base HEAD

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
  - ``Machine.eval`` runs and the steps they charged, ``apply_cached``
    hits and misses, ``certs.tagged`` hits, misses and distinct values
    held, the entries in the machine's sub-run table at the end, how many
    entries it evicted, and how many of the evicted keys were written
    again later;
  - how many runs the machine's cycle check ended, how many runs and
    unquotes its sub-run table answered, and how many calls each jet
    answered (``machine.CYCLES``, ``SUBRUN_HITS`` and ``JET_HITS``, the
    prefix's share of each).
The counts come from one more run that wraps ``Machine.eval`` and
``machine._remember``, so the wrappers cost no timed run anything.  Every
run must give the same digest.

With ``--base REV`` it also exports REV with ``git archive``, as
``scripts/ab_pairs.py`` does, and times the export's prefix as well: the
runs alternate between the export and this checkout, the export first in
odd repeats and this checkout first in even ones.  It prints both sides'
CPU medians by query kind and both digests, and exits 1 when they differ.
The counting run is made in this checkout only.
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

from ab_pairs import export

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(root: pathlib.Path, name: str):
    """root's perfbench/<name>.py as a module, with no bytecode written for
    it."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", root / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up while it is being defined
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def one_run(root: pathlib.Path, workload: str, seed: int, count: bool) -> dict:
    """The prefix of the checkout at root in this process; CPU by kind,
    digest and, when count is set, the machine's counts."""
    os.chdir(root)  # the queries name their inputs relative to the checkout
    sys.path.insert(0, str(root / "src"))
    from jreal import certs, cli, machine

    workloads = _load(root, "workloads")
    run = _load(root, "run")
    n = run.MEASURED_QUERIES[workload]
    (root / ".perfbench").mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix="prefix-", dir=root / ".perfbench"))
    try:
        queries = workloads.generate(workload, seed, root, work)[:n]
        cli.build_parser()
        runs = steps = evictions = 0
        evicted: set = set()
        rewritten: set = set()
        if count:
            table = machine._subruns
            remember = machine._remember

            def remembered(key, entry):
                nonlocal evictions
                if key in evicted:
                    rewritten.add(key)
                oldest = next(iter(table), None) if key not in table else None
                remember(key, entry)
                if oldest is not None and oldest not in table:
                    evictions += 1
                    evicted.add(oldest)

            machine._remember = remembered
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
        tags0 = certs.tagged.cache_info()
        fast0 = _fast_path_counts(machine)
        cpu: dict[str, float] = collections.defaultdict(float)
        kinds: collections.Counter = collections.Counter()
        h = hashlib.sha256()
        rel = work.relative_to(root).as_posix()
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
        tags1 = certs.tagged.cache_info()
        fast = {k: v - fast0[k] for k, v in _fast_path_counts(machine).items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"queries": len(queries), "kinds": dict(kinds), "cpu": dict(cpu),
            "sha256": h.hexdigest(), "runs": runs, "steps": steps,
            "hits": info1.hits - info0.hits,
            "misses": info1.misses - info0.misses,
            "tag_hits": tags1.hits - tags0.hits,
            "tag_misses": tags1.misses - tags0.misses,
            "tag_held": tags1.currsize, "subruns": len(machine._subruns),
            "evictions": evictions, "rewritten": len(rewritten), "fast": fast}


def _fast_path_counts(machine) -> dict[str, int]:
    """The machine's process-wide counts of runs ended by a repeat, of
    sub-runs answered from its table, and of each jet's answers."""
    return {"cycles": machine.CYCLES, "sub-run answers": machine.SUBRUN_HITS,
            **{f"{name} jet hits": n for name, n in machine.JET_HITS.items()}}


def spawn(root: pathlib.Path, workload: str, seed: int, mode: str) -> dict:
    """One run in a fresh interpreter, of the checkout at root."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--child", mode],
        cwd=root, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def timed_runs(workload: str, seed: int, repeat: int,
               base: pathlib.Path | None) -> dict[str, list[dict]]:
    """repeat timed runs of this checkout and, when base is given, of base,
    alternating the two sides' order from one repeat to the next."""
    sides = {"head": ROOT} if base is None else {"base": base, "head": ROOT}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(repeat):
        for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            runs[side].append(spawn(sides[side], workload, seed, "time"))
    return runs


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("certify", "search", "limit"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("--base", help="git revision to time against this checkout")
    # one run of the checkout in the working directory, printed as JSON:
    # "time" or "count"
    p.add_argument("--child", choices=("time", "count"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps(one_run(pathlib.Path.cwd(), args.workload, args.seed,
                                 args.child == "count")))
        return 0
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    with tempfile.TemporaryDirectory(prefix="prefix-base-") as tmp:
        base = None
        if args.base:
            base = pathlib.Path(tmp)
            commit = export(args.base, base)
        timed = timed_runs(args.workload, args.seed, args.repeat, base)
    counted = spawn(ROOT, args.workload, args.seed, "count")
    digests = {side: {r["sha256"] for r in runs} for side, runs in timed.items()}
    digests["head"].add(counted["sha256"])
    for side, seen in digests.items():
        if len(seen) != 1:
            print(f"{side} runs disagree on the digest: {sorted(seen)}",
                  file=sys.stderr)
            return 1
    kinds = counted["kinds"]
    sides = list(timed)
    print(f"# {args.workload} seed {args.seed}: {counted['queries']} queries, "
          f"CPU the median of {args.repeat} runs"
          + (f", base {commit[:12]}" if base else ""))

    def median(side: str, kind: str | None = None) -> float:
        return statistics.median(
            r["cpu"][kind] if kind else sum(r["cpu"].values())
            for r in timed[side])

    print(f"{'kind':24s} {'queries':>7s} "
          + " ".join(f"{side + ' cpu_s' if base else 'cpu_s':>13s}"
                     for side in sides))
    for kind in sorted(kinds, key=lambda k: -median("head", k)):
        print(f"{kind:24s} {kinds[kind]:7d} "
              + " ".join(f"{median(side, kind):13.3f}" for side in sides))
    print(f"{'total':24s} {counted['queries']:7d} "
          + " ".join(f"{median(side):13.3f}" for side in sides))
    for side in sides:
        print(f"{side + ' ' if base else ''}sha256 {min(digests[side])}")
    print(f"Machine.eval runs {counted['runs']}, charged steps {counted['steps']}")
    print(f"apply_cached hits {counted['hits']}, misses {counted['misses']}")
    print(f"certs.tagged hits {counted['tag_hits']}, misses "
          f"{counted['tag_misses']}, held {counted['tag_held']}")
    print(f"machine sub-run table entries {counted['subruns']}, evictions "
          f"{counted['evictions']}, evicted keys written again "
          f"{counted['rewritten']}")
    print("machine " + ", ".join(f"{k} {v}" for k, v in counted["fast"].items()))
    if base and digests["base"] != digests["head"]:
        print("the base and this checkout disagree on the digest", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
