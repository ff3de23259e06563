"""Compiled codes, machine step counts, the Skolem chain, the doctrine lab
and the realizability checker's verdicts, pinned.

The code digests are sha256 of ``hex(code)``: the codes run to thousands of
digits.  Any change to bracket abstraction, the coder or the machine's
reduction order shows up here first.  The chain pin is the sha256 of the
whole sign table at k=150 together with its one-line summary.  The doctrine
pin is the sha256 of the F and J tables of seeded random doctrines with the
law and uniformity reports of both operators.  The checker pins are the
sha256 of (carrier, formula, e, verdict class) for small codes e and three
map realizers: every triple on two finite carriers, and the Realized ones on
the naturals.
"""

import hashlib
from random import Random

import pytest

from jreal import coding, kit, prog, skolem
from jreal.assemblies import FiniteAssembly
from jreal.bracket import lam
from jreal.certs import CheckPolicy
from jreal.deciders import decider_code, decider_term, parse_dec
from jreal.doctrine import (local_laws, lfp_local, pitts_f_finite,
                            random_doctrine, uniformity_finite)
from jreal.formulas import parse_formula
from jreal.jsets import Cofinite, Finite, UpFrom
from jreal.machine import DEFAULT_FUEL, eval_term
from jreal.realizes import Env, jrealizes, nat_env
from jreal.terms import App, K, Num, Var, ap, encode_term

TREE = "union (one 2) (not one 5)"

CODE_DIGESTS = {
    "A_CODE": "fec754530348e0cb84a22ad83c130564227d125ca807c2956bacbfe86a03f6a2",
    "B_CODE": "242a87162ef9ce9f28ce3e0d1fe0bb011dbb995cb57623d851f50e091f344d19",
    "C_CODE": "04feb93d55af80825ad7553a57c9404bc97a262add028383a53c3caa595f4e39",
    "D_CODE": "058f60eb05d0647e5ae84d1657b0f1f228b552056005e9623b8d8dced50e1ede",
    "E_CODE": "d7e250dbdaa12c76062c6009012f820c2528c1023a6ea4f4e1cbfb80f860e209",
    "G_BUILDER_CODE": "5fd727fe6266de99ab4bbc3c4aa36e7aa2ad442e44d90ee0f275d791344f7971",
    "ANYZERO_CODE": "6b657eb6aa582a805dfe277e657a35d3e822d3087315019f71e06ede2a74c208",
    "LEASTZERO_CODE": "6f275bec2112ea968cebbc855b86681fdddfa204c629e0c8678023dcad691eeb",
    "MOD": "7de6389e1a242761ea54f8d1f455c9aa531e109a91aef964e3194454d716f308",
    "decider": "3a5be20ff647b57452ae941676b3b0108ef336144f4d13204a9b11a4f2a09b22",
}


def _digest(code: int) -> str:
    return hashlib.sha256(hex(code).encode()).hexdigest()


def _code(name: str) -> int:
    if name == "MOD":
        return encode_term(prog.MOD)
    if name == "decider":
        return decider_code(parse_dec(TREE))
    return getattr(kit, name)


@pytest.mark.parametrize("name", sorted(CODE_DIGESTS))
def test_compiled_code_is_pinned(name):
    assert _digest(_code(name)) == CODE_DIGESTS[name]


def test_step_counts_are_pinned():
    assert eval_term(ap(prog.MUL, Num(6), Num(7)), 100_000) == (Num(42), 16_472)
    assert eval_term(ap(prog.MOD, Num(100), Num(7)), 100_000) == (Num(2), 29_067)
    out, steps = eval_term(App(decider_term(parse_dec(TREE)), Num(5)), 100_000)
    assert steps == 162
    assert _digest(out.value) == (
        "ebe42cfcd3d8c01a2e92d660f5c22ed4a4a0dbd5134939c453d14c920ccc08c6")


def test_chain_is_pinned():
    s = skolem.Model().ensure(150)
    table = "".join(skolem.sign(s, i, j)
                    for i in range(151) for j in range(151))
    assert hashlib.sha256(table.encode()).hexdigest() == (
        "132c83403f962b65498fbe5315dae95d04a16cab73a77513b7af91789d710d49")
    assert skolem.show_chain(s) == (
        "chain k=150 live=(mod 60: {0} from 3) classes=41 "
        "psi tail=[...1680,1740,1800,1860,1920,1980]")


def _law_text(rep) -> str:
    """The law report in the text the doctrine pin was taken over, where each
    witness element is printed together with the name of its law."""
    def w(e, law):
        return "None" if e is None else f"Witness(element={e}, law={law!r})"
    return (f"LawReport(e1={w(rep.e1, 'E1')}, e2={w(rep.e2, 'E2')}, "
            f"e3={w(rep.e3, 'E3')}, e4={w(rep.e4, 'E4')}, "
            f"e4_derived={w(rep.e4_derived, 'E4')}, "
            f"e4_derivation_note={rep.e4_derivation_note!r})")


def test_doctrine_lab_is_pinned():
    h = hashlib.sha256()
    for size in range(3, 7):
        for seed in range(10):
            d = random_doctrine(Random(seed), size)
            F = pitts_f_finite(d)
            J = lfp_local(d, F)
            h.update((f"({F!r}, {J!r}, "
                      f"{_law_text(local_laws(d, F))}, {uniformity_finite(d, F)!r}, "
                      f"{_law_text(local_laws(d, J))}, {uniformity_finite(d, J)!r})"
                      ).encode())
    assert h.hexdigest() == (
        "7f8639f7d06a60dc3c8a288a6e8cb1857ec58f6c2675f95d2a62d677399dd3dc")


VERDICT_FORMULAS = (
    "forall x. x = x", "forall x. x < 2", "exists x. x = 1",
    "exists x. x = x /\\ 0 = 0", "0 = 0 -> 0 = 0", "0 = 1 -> 0 = 0",
    "0 = 0 -> 0 = 1", "0 = 0 /\\ 0 < 1", "0 = 1 \\/ 0 = 0",
    "forall x. x = x -> x = x", "forall x. exists y. x = y",
    "(forall x. x = x) -> 0 = 0",
)


def _map_realizers() -> tuple[int, ...]:
    """<0, map> for maps sending k to 0 (untagged), to <0,<0,0>>, and to
    <0,<0,k>>: no instance lands, some land, every instance lands."""
    wrap = lambda t: App(Num(kit.A_CODE), t)
    maps = (App(K, Num(0)), lam("k", wrap(wrap(Num(0)))),
            lam("k", wrap(wrap(Var("k")))))
    return tuple(coding.pair(0, encode_term(m)) for m in maps)


def _verdicts(env: Env):
    pol = CheckPolicy(depth=4, window=2, fuel=DEFAULT_FUEL)
    codes = tuple(range(48)) + _map_realizers()
    for text in VERDICT_FORMULAS:
        phi = parse_formula(text)
        for e in codes:
            yield (env.assembly.name, text, e,
                   type(jrealizes(e, phi, env, pol)).__name__)


def test_checker_verdicts_on_finite_carriers_are_pinned():
    tri = FiniteAssembly("tri", (0, 1, 2), (Finite(frozenset({0})),
                                            Finite(frozenset({1})),
                                            Finite(frozenset({2, 3}))))
    wide = FiniteAssembly("wide", (0, 1), (UpFrom(3), Cofinite(frozenset({1}))))
    h = hashlib.sha256()
    for asm in (tri, wide):
        for row in _verdicts(Env(asm)):
            h.update(repr(row).encode())
    assert h.hexdigest() == (
        "5626e6953c81ca2c9db0e7c26af7c8b7afc6f5429baf71ec282f9a3b543a73f2")


def test_checker_realized_verdicts_on_the_naturals_are_pinned():
    h = hashlib.sha256()
    for row in _verdicts(nat_env()):
        if row[3] == "Realized":
            h.update(repr(row).encode())
    assert h.hexdigest() == (
        "fd10a7d4aba9af5343b556d29857c41c34c5c22978f7bde582f5401012092d41")
