"""Before/after pairs of the benchmark: a base revision against this tree.

    python3 scripts/ab_pairs.py --base REV --workload certify --pairs 10
    python3 scripts/ab_pairs.py --base HEAD~1 --workload limit --pairs 5 --seed 3
    python3 scripts/ab_pairs.py --base HEAD --workload limit --pairs 4

Exports REV and this tree with ``git archive`` into two temporary
directories: this tree as ``git stash create`` records it (its tracked
files with their changes, so stage a new file to include it), or HEAD when
nothing tracked has changed.  Then it runs ``perfbench/run.py --workload W
--seed S --trace 0`` alternately in the two exports, the base first in odd
pairs and this tree first in even ones, so that a drift in host speed falls
on both sides alike.  Each run is a fresh process from a clean export, so
each side builds what it runs from its own sources and neither runs from
the development checkout.  ``--base HEAD`` on a clean tree runs HEAD
against itself: an A/A run, whose split shows the host's noise.

It prints, for every end-to-end metric of ``BENCHMARK.json``, the median
and quartiles of each side, and in how many pairs this tree did better,
and writes every run's result line at the root of this tree, to
``BENCH_<workload>.json`` for seed 0 and ``BENCH_<workload>-seed<S>.json``
for any other seed S, so that a run at a second seed keeps the first one's
record.  A gain is worth claiming when this tree wins nearly every pair and
the medians differ by more than the base's interquartile range.
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(rev: str, into: pathlib.Path) -> str:
    """Write the files of rev under into; its full commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", commit))) as tar:
        tar.extractall(into, filter="data")
    return commit


def bench(checkout: pathlib.Path, workload: str, seed: int) -> dict:
    """The result line of one untraced benchmark run in checkout."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(pairs: list[dict]) -> dict:
    """Per metric: median and quartiles of each side, and this tree's wins."""
    out = {}
    for m in SPEC["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        side = {k: [p[k]["metrics"][name]["value"] for p in pairs]
                for k in ("base", "head")}
        wins = sum((h > b) if higher else (h < b)
                   for b, h in zip(side["base"], side["head"]))
        out[name] = {"wins": wins, "better": m["better"]}
        for k, xs in side.items():
            q1, med, q3 = (statistics.quantiles(xs, n=4, method="inclusive")
                           if len(xs) > 1 else (xs[0],) * 3)
            out[name][k] = {"median": med, "q1": q1, "q3": q3}
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare with")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    head = _git("rev-parse", "HEAD").decode().strip()
    # a commit of the tracked changes, or nothing on a clean tree
    snapshot = _git("stash", "create").decode().strip()
    dirty = bool(snapshot)
    pairs = []
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        dirs = {"base": pathlib.Path(tmp, "base"), "head": pathlib.Path(tmp, "head")}
        base = export(args.base, dirs["base"])
        export(snapshot or head, dirs["head"])
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"order": list(order)}
            for side in order:
                pair[side] = bench(dirs[side], args.workload, args.seed)
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} ({' then '.join(order)}): "
                  + "  ".join(
                      f"{k} {pair[k]['metrics']['throughput_qps']['value']:.2f} qps"
                      for k in ("base", "head")),
                  file=sys.stderr, flush=True)
    table = summary(pairs)
    print(f"# {args.workload} seed {args.seed}, {args.pairs} pairs: "
          f"base {base[:12]} -> head {head[:12]}{' + changes' if dirty else ''}")
    print(f"{'metric':18s} {'base median [q1, q3]':>32s} "
          f"{'head median [q1, q3]':>32s} {'wins':>6s}")
    for name, row in table.items():
        cells = [f"{row[k]['median']:.4g} [{row[k]['q1']:.4g}, {row[k]['q3']:.4g}]"
                 for k in ("base", "head")]
        print(f"{name:18s} {cells[0]:>32s} {cells[1]:>32s} "
              f"{row['wins']:>3d}/{args.pairs}")
    record = {"workload": args.workload, "seed": args.seed,
              "base": base, "head": head, "head_has_changes": dirty,
              "summary": table, "pairs": pairs}
    suffix = f"-seed{args.seed}" if args.seed else ""
    path = ROOT / f"BENCH_{args.workload}{suffix}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
