"""Deterministic run reports shared by every command-line entry point.

Every subcommand reduces its work to a flat list of cases, each carrying a
machine verdict and a short human detail.  The emitters are byte-stable:
the same report object always serializes to the same bytes, so golden-file
tests can diff command output directly.

A report's caveats are the ones its results carry, passed on as they come;
each format prints each once, in first-seen order: text as an ``APPROX``
line, tsv as an ``APPROX`` row.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .certs import CheckPolicy


class Status(Enum):
    """How a case counts toward the process exit code."""
    PASS = "pass"
    FAIL = "fail"
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class Case:
    ident: str
    verdict: str       # display word: In, Verified, realized, ...
    detail: str
    status: Status

    def __post_init__(self):
        for text in (self.ident, self.verdict, self.detail):
            if "\n" in text or "\t" in text:
                raise ValueError("case fields must be single-line, tab-free")


@dataclass(frozen=True)
class Report:
    title: str
    cases: tuple[Case, ...] = ()
    caveats: tuple[str, ...] = ()
    # the run's bounds and seed, echoed in the text header
    policy: CheckPolicy = CheckPolicy()
    seed: int = 0

    def count(self, status: Status) -> int:
        return sum(1 for c in self.cases if c.status is status)


def case_pass(ident: str, verdict: str, detail: str) -> Case:
    return Case(ident, verdict, detail, Status.PASS)


def case_fail(ident: str, verdict: str, detail: str) -> Case:
    return Case(ident, verdict, detail, Status.FAIL)


def case_unknown(ident: str, verdict: str, detail: str) -> Case:
    return Case(ident, verdict, detail, Status.UNKNOWN)


def exit_code(report: Report) -> int:
    """0 all good, 1 on any failure, 2 when unknowns dominate passes."""
    if report.count(Status.FAIL):
        return 1
    if report.count(Status.UNKNOWN) > report.count(Status.PASS):
        return 2
    return 0


def _text_lines(report: Report) -> list[str]:
    lines = [f"# {report.title}"]
    p = report.policy
    lines.append(f"policy depth={p.depth} window={p.window} "
                 f"fuel={p.fuel} seed={report.seed}")
    for c in report.cases:
        lines.append(f"case {c.ident} {c.verdict} {c.detail}".rstrip())
    lines.append(f"counts pass={report.count(Status.PASS)} "
                 f"fail={report.count(Status.FAIL)} "
                 f"unknown={report.count(Status.UNKNOWN)}")
    for cav in dict.fromkeys(report.caveats):
        lines.append(f"APPROX {cav}")
    return lines


def _tsv_lines(report: Report) -> list[str]:
    # one row per case, then one per caveat; no trailing whitespace on a row
    return ([f"{c.ident}\t{c.verdict}\t{c.detail}".rstrip()
             for c in report.cases]
            + [f"APPROX\t{cav}" for cav in dict.fromkeys(report.caveats)])


def emit_report(report: Report, fmt: str = "text") -> bytes:
    match fmt:
        case "text":
            lines = _text_lines(report)
        case "tsv":
            lines = _tsv_lines(report)
        case _:
            raise ValueError(f"unknown report format {fmt!r}")
    return ("\n".join(lines) + "\n").encode()
