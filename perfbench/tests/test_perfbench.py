"""The benchmark's own tests: its inputs, its checks and its golden counts.

    python3 -m pytest -q perfbench/tests

The golden counts pin what the traced prefix of each workload does for
seed 0: machine contractions, runs and fuel exhaustions, apply_cached hits
and misses, certificate checks, Skolem chain extensions and of_weight
calls.  They change only when the program does different work for the same
queries, or when the workloads change.
"""

from __future__ import annotations

import pathlib
import shutil
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def work(tmp_path_factory):
    # inputs must sit inside the checkout, where the worker runs
    path = ROOT / ".perfbench" / f"test-{tmp_path_factory.mktemp('w').name}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _prefix(workload: str, work: pathlib.Path, count: int, trace: bool):
    queries = workloads.generate(workload, 0, ROOT, work)[:count]
    result, _ = run.run_worker(work, workload, queries, 600, count, trace)
    assert len(result["records"]) == count
    return queries, result


def test_same_seed_same_inputs(work):
    def stream(seed, name):
        (work / name).mkdir()
        queries = workloads.generate("certify", seed, ROOT, work / name)
        return [[x.replace(f"/{name}/", "/") for x in q.argv] for q in queries]

    assert stream(3, "a") == stream(3, "b")
    assert stream(3, "a2") != stream(4, "c")


def _fake(out: str, err: str = "", exc=None) -> dict:
    return {"lat": 0.0, "rc": 0, "exc": exc, "out": out, "err": err}


REPORT = "# t\npolicy depth=6 window=1 fuel=200000 seed=0\ncase n=3 In x\n"


def test_judge_outcomes():
    q = workloads.Query(["jdec"], "jdec run", (6, 1, 200000), {"n=3": ("In",)})
    assert check.judge(q, _fake(REPORT), ROOT)[0] == "ok"
    bad = workloads.Query(["jdec"], "jdec run", (6, 1, 200000),
                          {"n=3": ("Out",)})
    assert check.judge(bad, _fake(REPORT), ROOT)[0] == "wrong"
    assert check.judge(bad, _fake(REPORT + "APPROX sampled\n"), ROOT)[0] == "wrong"
    other = workloads.Query(["jdec"], "jdec run", (6, 2, 200000),
                            {"n=3": ("In",)})
    assert check.judge(other, _fake(REPORT), ROOT)[0] == "error"
    assert check.judge(q, _fake("", "jreal: error: nope\n"), ROOT)[0] == "error"
    assert check.judge(q, _fake("", exc="ValueError: x"), ROOT)[0] == "error"
    unknown = REPORT.replace("n=3 In", "n=3 Unknown")
    assert check.judge(q, _fake(unknown), ROOT)[0] == "unknown"


SAMPLED = "APPROX antecedent realizers sampled below 64\n"


def test_realized_false_sentence_under_sampling_is_kept_apart():
    q = workloads.Query(["realize"], "realize check", (4, 2, 200000),
                        {"check": ("Refuted",)})
    out = "policy depth=4 window=2 fuel=200000 seed=0\ncase check Realized x\n"
    assert check.judge(q, _fake(out), ROOT)[0] == "wrong"
    assert check.judge(q, _fake(out + "APPROX other\n"), ROOT)[0] == "wrong"
    assert check.judge(q, _fake(out + SAMPLED), ROOT)[0] == "sampled"


def test_other_approx_positives_are_wrong():
    """Only a realize check can blame sampling: a bad certificate accepted
    under the lift caveat, or a corpus case Realized beside a sibling's
    caveat, is a wrong answer."""
    cert = workloads.Query(["jcert"], "jcert check", (8, 2, 200000),
                           {"cert": ("rejected",)})
    out = ("policy depth=8 window=2 fuel=200000 seed=0\n"
           "case cert accepted x\n"
           "APPROX lift obligations checked on a finite window only\n")
    assert check.judge(cert, _fake(out), ROOT)[0] == "wrong"
    assert check.judge(cert, _fake(out + SAMPLED), ROOT)[0] == "wrong"
    corpus = workloads.Query(["realize"], "realize corpus", (4, 2, 200000),
                             {"true0": ("Realized",), "false0": ("Refuted",)})
    out = ("policy depth=4 window=2 fuel=200000 seed=0\n"
           "case false0 Realized x\ncase true0 Realized x\n" + SAMPLED)
    assert check.judge(corpus, _fake(out), ROOT)[0] == "wrong"


def test_sign_pairs_must_flip():
    pol = (4, 4, 200000)
    qs = [workloads.Query(["skolem"], "skolem sign", pol, {}, ("sign", "1,2")),
          workloads.Query(["skolem"], "skolem sign", pol, {}, ("sign", "2,1"))]
    head = "policy depth=4 window=4 fuel=200000 seed=0\n"
    flipped = [_fake(head + "case 1,2 < a\n"), _fake(head + "case 2,1 > a\n")]
    same = [_fake(head + "case 1,2 < a\n"), _fake(head + "case 2,1 < a\n")]
    assert [o for o, _ in check.judge_all(qs, flipped, ROOT)] == ["ok", "ok"]
    assert [o for o, _ in check.judge_all(qs, same, ROOT)] == ["ok", "wrong"]


def test_corrupted_expectation_raises_wrong_ratio(work):
    """Negative control on real reports: the same run judged against a
    corrupted expected answer must show wrong answers."""
    queries, result = _prefix("limit", work, 20, False)
    outcomes = check.judge_all(queries, result["records"], ROOT)
    clean = check.end_to_end(result, outcomes, [1.0], 20)
    assert clean["wrong_ratio"] == 0 and clean["error_ratio"] == 0
    for q in queries:
        q.expect = {ident: ("Corrupted",) for ident in q.expect}
    outcomes = check.judge_all(queries, result["records"], ROOT)
    assert check.end_to_end(result, outcomes, [1.0], 20)["wrong_ratio"] > 0.5


def test_known_crash_counts_as_error(work):
    """realize build on a bounded universal dies printing its realizer."""
    pol = (4, 2, 200000)
    q = workloads.Query(["realize", "build", "--formula", "forall x < 4. x < 9",
                         *workloads.policy_flags(*pol)], "realize build", pol,
                        {"build": ("Built",), "selfcheck": ("Realized",)})
    result, _ = run.run_worker(work, "crash", [q], 600, 1, False)
    outcome, note = check.judge(q, result["records"][0], ROOT)
    assert outcome == "error"
    assert "4300 digits" in note


# workload -> (traced prefix length, pinned counts)
GOLDEN = {
    "certify": (30, {
        "machine.contractions": 163354, "machine.runs": 114,
        "machine.out_of_fuel": 0, "machine.cache_hits": 82,
        "machine.cache_misses": 114, "certs.checks": 24,
        "skolem.extend_calls": 0, "quasipoly.of_weight_calls": 0}),
    "search": (8, {
        "machine.contractions": 89138, "machine.runs": 13839,
        "machine.out_of_fuel": 116, "machine.cache_hits": 31,
        "machine.cache_misses": 13839, "certs.checks": 0,
        "skolem.extend_calls": 0, "quasipoly.of_weight_calls": 0}),
    "limit": (30, {
        "machine.contractions": 0, "machine.runs": 0,
        "machine.out_of_fuel": 0, "machine.cache_hits": 0,
        "machine.cache_misses": 0, "certs.checks": 0,
        "skolem.extend_calls": 790, "quasipoly.of_weight_calls": 4096}),
}


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_golden_counts_seed0(workload, work):
    count, pinned = GOLDEN[workload]
    queries, result = _prefix(workload, work, count, True)
    got = spans.layer_metrics(result["trace"], result["wall_s"],
                              result["cache_hits"], result["cache_misses"],
                              count, 0.0)
    keys = ("machine.contractions", "machine.runs", "machine.out_of_fuel",
            "machine.cache_hits", "machine.cache_misses", "certs.checks",
            "skolem.extend_calls", "quasipoly.of_weight_calls")
    assert {k: got[k] for k in keys} == pinned
