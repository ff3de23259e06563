"""The benchmark's machine runs, replayed on the reference machine.

Runs certify's seed-0 measured prefix in this process, as the benchmark's
worker does, with every ``Machine.eval`` recorded: the term, the fuel, and
what the run gave.  The machine's sub-run table and ``apply_cached`` are
emptied first, so every run that the prefix makes is made here, and none is
answered from what earlier tests left.  Each recorded run is then made again
on ``support.ReferenceMachine``, which has no jets, no sub-run table, no
templates on the hole and no cycle check, and must give the same kind, the
same value code and the same charged steps.  The workloads are loaded from
``perfbench/workloads.py`` and ``perfbench/run.py`` without writing anything
under ``perfbench/``, as in ``test_report_digest.py``.
"""

import contextlib
import io

from jreal import cli, machine
from jreal.machine import Machine, NotClosedAtRuntime, _as_nat
from support import ReferenceMachine
from test_report_digest import ROOT, _load, work  # noqa: F401  (a fixture)

# runs and charged steps of certify's seed-0 measured prefix; a change to
# what the prefix runs re-pins them
CERTIFY_RUNS = 400
CERTIFY_STEPS = 1_149_911


def _outcome(out, steps: int) -> tuple:
    """(kind, value code, steps) of a run that returned out."""
    if out is None:
        return "fuel", None, steps
    return "value", _as_nat(out), steps


def _on_reference(t, fuel: int) -> tuple:
    m = ReferenceMachine(fuel)
    try:
        out = m.eval(t)
    except NotClosedAtRuntime:
        return "open", None, m.steps
    return _outcome(out, m.steps)


def test_certify_prefix_replays_on_the_reference_machine(work, monkeypatch):
    workloads = _load("workloads", monkeypatch)
    run = _load("run", monkeypatch)
    count = run.MEASURED_QUERIES["certify"]
    queries = workloads.generate("certify", 0, ROOT, work)[:count]

    recorded: list[tuple] = []  # (term, fuel, outcome) of every run
    plain = Machine.eval

    def recording(self, t):
        try:
            out = plain(self, t)
        except NotClosedAtRuntime:
            recorded.append((t, self.fuel, ("open", None, self.steps)))
            raise
        recorded.append((t, self.fuel, _outcome(out, self.steps)))
        return out

    monkeypatch.chdir(ROOT)  # the queries name their inputs relative to it
    monkeypatch.setattr(machine, "_subruns", type(machine._subruns)())
    machine.apply_cached.cache_clear()
    monkeypatch.setattr(Machine, "eval", recording)
    cli.build_parser()
    for q in queries:
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(q.argv)
    monkeypatch.undo()

    for t, fuel, outcome in recorded:
        assert _on_reference(t, fuel) == outcome, (fuel, t)
    steps = sum(outcome[2] for *_, outcome in recorded)
    assert (len(recorded), steps) == (CERTIFY_RUNS, CERTIFY_STEPS)
