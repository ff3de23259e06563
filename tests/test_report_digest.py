"""The same report bytes for the benchmark's query streams.

Runs the first queries of each seed-0 workload of ``perfbench`` in a fresh
worker, as ``perfbench/tests`` do, so no cache state leaks between this and
other tests, and pins one sha256 over every report's exit code and
standard output.  The workloads are loaded from ``perfbench/workloads.py``
and ``perfbench/run.py`` without writing anything under ``perfbench/``.
Inputs sit under ``.perfbench/`` in the checkout, where the worker runs,
and their directory is written as ``<work>`` before hashing.

A change that moves report bytes re-pins the digest and says so.
"""

import hashlib
import importlib.util
import pathlib
import shutil
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

# workload -> (queries hashed, sha256 over their exit codes and reports)
DIGESTS = {
    "certify": (176, "2be386c44d0330abda95d4fca6cf9109"
                     "6ad1afd4b28bb9ff86368aea1470ffd7"),
    "search": (22, "5121d93341c3745fa975107b3d9e692c"
                   "d33ab909f0e3e2895d8db38e2aca2220"),
    "limit": (190, "52676c61ea61c0b29e3daf44d4c4c92e"
                   "9a94c88b19d9a772fc44b27b880a3191"),
}


def _load(name: str, monkeypatch):
    # run.py puts its own directory on sys.path; the test gives it back
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up while it is being defined
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def work(tmp_path_factory):
    path = ROOT / ".perfbench" / f"digest-{tmp_path_factory.mktemp('w').name}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def digest(records, work: pathlib.Path) -> str:
    h = hashlib.sha256()
    rel = work.relative_to(ROOT).as_posix()
    for rec in records:
        out = rec["out"].replace(str(work), "<work>").replace(rel, "<work>")
        h.update(f"exit {rec['rc']}\n{out}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_report_digest_seed0(workload, work, monkeypatch):
    count, pinned = DIGESTS[workload]
    workloads = _load("workloads", monkeypatch)
    run = _load("run", monkeypatch)
    queries = workloads.generate(workload, 0, ROOT, work)[:count]
    result, _ = run.run_worker(work, workload, queries, 600, count, False)
    assert len(result["records"]) == count
    assert digest(result["records"], work) == pinned
