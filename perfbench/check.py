"""Judging each query's report against its expected answers, and the
end-to-end metrics of one run.

A query has exactly one outcome:

- ``error``: it raised an uncaught exception, printed an error message
  (``jreal: error:`` or an argument error), or its report's ``policy`` line
  does not echo the ``--depth``/``--window``/``--fuel`` it was given;
- ``wrong``: a decided verdict contradicts the expected answer, an expected
  case is missing, or a cross-check fails;
- ``sampled``: the one contradiction that sampling can cause.  A
  ``realize check`` answers Realized for a false sentence, and its report
  says the implication's antecedent realizers were only sampled
  (``APPROX antecedent realizers sampled ...``): when no sampled code
  realizes the antecedent, the check passes vacuously.  Such verdicts are
  counted apart from wrong answers, never as agreeing ones.  Every other
  positive verdict that contradicts the expected answer is wrong, APPROX
  or not: no lift caveat makes a rejected certificate accepted, and a
  corpus merges the caveats of all its cases;
- ``unknown``: no verdict contradicts, but some case is Unknown;
- ``ok``: every case is decided and agrees.
"""

from __future__ import annotations

import math
import pathlib


SAMPLED_ANTECEDENTS = "APPROX antecedent realizers sampled"


def parse_report(text: str):
    """(policy, cases, sampled): policy as (depth, window, fuel) or None,
    cases as an ordered list of (ident, verdict, detail), and whether the
    report says antecedent realizers were sampled."""
    policy = None
    cases = []
    sampled = False
    for line in text.splitlines():
        sampled = sampled or line.startswith(SAMPLED_ANTECEDENTS)
        if line.startswith("policy "):
            fields = dict(f.split("=", 1) for f in line.split()[1:])
            policy = (int(fields["depth"]), int(fields["window"]),
                      int(fields["fuel"]))
        elif line.startswith("case "):
            parts = line.split(" ", 3)
            cases.append((parts[1], parts[2], parts[3] if len(parts) > 3 else ""))
    return policy, cases, sampled


def _map_of(detail: str) -> tuple[str, ...]:
    # "a0>b1 a1>b0" or "a0>b1 a1>b0: reason"
    return tuple(step.split(">", 1)[1]
                 for step in detail.split(":", 1)[0].split())


def judge(query, rec: dict, root: pathlib.Path) -> tuple[str, str]:
    """The outcome of one query and a one-line reason."""
    if rec["exc"] is not None:
        return "error", rec["exc"]
    if "error:" in rec["err"]:
        return "error", rec["err"].strip().splitlines()[-1]
    policy, cases, sampled = parse_report(rec["out"])
    if policy != tuple(query.policy):
        return "error", f"policy echo {policy} for requested {tuple(query.policy)}"
    verdicts = {ident: verdict for ident, verdict, _ in cases}
    unknown = any(v == "Unknown" for v in verdicts.values())
    for ident, allowed in query.expect.items():
        got = verdicts.get(ident)
        if got is None:
            return "wrong", f"no case {ident}"
        if got != "Unknown" and got not in allowed:
            why = f"case {ident} {got}, expected {'/'.join(allowed)}"
            if sampled and query.kind == "realize check" and got == "Realized":
                return "sampled", why
            return "wrong", why
    kind = query.check[0] if query.check else None
    if kind == "file":
        _, path, text = query.check
        target = root / path
        if not target.is_file() or target.read_text() != text:
            return "wrong", f"{path} does not hold the built tree"
    elif kind == "exp":
        _, maps, excluded = query.check
        if sorted(_map_of(d) for _, _, d in cases) != maps:
            return "wrong", "maps not listed exactly once"
        got = sorted(_map_of(d) for _, v, d in cases if v == "Excluded")
        if got != excluded:
            return "wrong", f"excluded {got}, expected {excluded}"
    if unknown:
        return "unknown", "some case is Unknown"
    return "ok", ""


_FLIP = {"<": ">", ">": "<", "=": "="}


def judge_all(queries, records, root: pathlib.Path) -> list[tuple[str, str]]:
    """Outcomes of the queries that ran, in order, with the sign pairs
    cross-checked: sign(i,j) must be the flip of sign(j,i)."""
    outcomes = [judge(q, r, root) for q, r in zip(queries, records)]
    signs: dict[tuple[str, str], str] = {}
    for k, (q, r) in enumerate(zip(queries, records)):
        if not q.check or q.check[0] != "sign" or outcomes[k][0] != "ok":
            continue
        _, cases, _ = parse_report(r["out"])
        if not cases:
            outcomes[k] = ("wrong", "sign printed no case")
            continue
        i, j = q.check[1].split(",")
        rel = cases[0][1]
        partner = signs.get((j, i))
        if partner is not None and _FLIP.get(partner) != rel:
            outcomes[k] = ("wrong", f"sign {i},{j} is {rel} but {j},{i} is {partner}")
        signs[(i, j)] = rel
    return outcomes


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def trimmed_mean(values: list[float]) -> float:
    """The mean without the highest and lowest tenth (at least one each
    from five values on)."""
    ordered = sorted(values)
    cut = max(1, len(ordered) // 10) if len(ordered) >= 5 else 0
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


# Seconds worker.reference() takes on the reference host.  A shared host
# flips between a fast and a slow state, up to 1.8 times apart, several
# times a minute, and the program's queries, its set-up and the reference
# workload slow down together, so times are scaled by
# REF_S / (the reference's mean time over the same stretch): the time the
# work would take on a host where the reference takes REF_S.  A mean, not
# a median: the stretch's wall time averages over both states, and a
# median of two clusters jumps from one to the other.  The table prints
# the factors as host_scale (the measured queries) and host_scale_run (the
# whole run); dividing by them gives wall-clock figures.
REF_S = 0.0045


def host_scale(refs: list[float]) -> float:
    return REF_S / trimmed_mean(refs)


def end_to_end(result: dict, outcomes, setup_samples: list[float],
               measured: int) -> dict:
    """Every end-to-end figure of one untraced run, including the ratios
    that can be 0 and so are not gated metrics.

    Throughput, CPU per query, peak RSS and the decided ratio are taken
    over the stream's first ``measured`` queries (all of them, should a
    run end sooner), the same queries on a fast host as on a slow one:
    the stream's cost per query is not flat, as cold inputs crowd its
    start and heavy inputs come round periodically, so a rate over
    however many queries a run gets through would move with host speed
    and with the program's own speed.  A faster program simply takes less
    time over them.  Latency percentiles and the outcome ratios take every
    query of the run."""
    records = result["records"]
    lats = [r["lat"] for r in records]
    n = len(lats)
    k = min(n, measured)
    head = records[:k]
    count = {o: sum(1 for x, _ in outcomes if x == o)
             for o in ("ok", "wrong", "sampled", "unknown", "error")}
    decided = sum(1 for x, _ in outcomes[:k] if x in ("ok", "wrong"))
    scale = host_scale([s for i, s in result["refs_s"] if i < k])
    run_scale = host_scale([s for _, s in result["refs_s"]])
    return {
        "throughput_qps": k / (sum(r["lat"] for r in head) * scale),
        "cpu_per_query_ms": sum(r["cpu"] for r in head) * scale / k * 1e3,
        "peak_rss_mb": head[-1]["rss_mb"],
        "decided_ratio": decided / k,
        "setup_s": trimmed_mean(setup_samples) * run_scale,
        "latency_p50_ms": percentile(lats, 0.5) * run_scale * 1e3,
        "latency_p90_ms": percentile(lats, 0.9) * run_scale * 1e3,
        "host_scale": scale,
        "host_scale_run": run_scale,
        "error_ratio": count["error"] / n,
        "wrong_ratio": count["wrong"] / n,
        "sampled_wrong_ratio": count["sampled"] / n,
        "unknown_ratio": count["unknown"] / n,
        "measured_queries": k,
        "queries": n,
        "setup_samples": len(setup_samples),
    }
