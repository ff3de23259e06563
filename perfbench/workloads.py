"""Seeded query streams for the three workloads, with expected answers.

Every query is the argv of one ``jreal`` command.  Its expected answers
come from this module, never from the code under test: decision-tree
membership by evaluating the tree here, truth of closed sentences by plain
Python arithmetic, corpus verdicts from the ``expect:`` fields written
here, tracking verdicts from set arithmetic on the realizer sets, and the
verdicts the theory fixes (transfer Consistent, lfp agree Equal, operator
Local, extend Increasing/Nested, and sign(i,j) the flip of sign(j,i)).
The program's public API is used only to build inputs: trees, realizer
codes for ``realize check``, certificates, tracker codes and doctrines.

A stream is a sequence of rounds.  Every round holds the same multiset of
query kinds.  The seed draws the concrete inputs and nothing else: the
order of the kinds in a round, and the order in which pool slots, points
and limits come round, come from generators of their own that are the same
for every seed.  The program's caches make a query's cost depend on what
ran before it, so a seeded order would move the amount of work from seed
to seed.  Inputs come from small pools, so queries repeat and share work
the way a session does; how much they share is fixed by the pool sizes
below and, for trees, by which points they have in common: that is drawn
the same for every seed, and the seed renames the points.  The search
workload's assemblies are the same for every seed (see search()).

Every query passes ``--fuel``, ``--depth`` and ``--window`` after its leaf
subcommand, where the command line honours them, and the report's
``policy`` line must echo them.
"""

from __future__ import annotations

import dataclasses
import itertools
import pathlib
import re
from random import Random

ROUNDS = 200


@dataclasses.dataclass
class Query:
    argv: list[str]
    kind: str
    policy: tuple[int, int, int]          # depth, window, fuel
    # case ident -> verdict words that agree with the expected answer
    expect: dict[str, tuple[str, ...]] = dataclasses.field(default_factory=dict)
    # extra checks: ("file", path, text) for a written file, ("exp", maps,
    # excluded maps) for tracker search, ("sign", "i,j") for sign pairs
    check: tuple = ()


def policy_flags(depth: int, window: int, fuel: int) -> list[str]:
    return ["--depth", str(depth), "--window", str(window), "--fuel", str(fuel)]


class Cycle:
    """Draws from a fixed set in seeded order, each value once per pass.

    Values that set a query's cost are drawn this way rather than at
    random, so every run covers them evenly and runs with different seeds
    do the same amount of work."""

    def __init__(self, rng: Random, values):
        self.rng = rng
        self.values = list(values)
        self.queue: list = []

    def __call__(self):
        if not self.queue:
            self.queue = list(self.values)
            self.rng.shuffle(self.queue)
        return self.queue.pop()


# ---------------------------------------------------------------------------
# decision trees, evaluated here


def tree_member(tree, x: int) -> bool:
    from jreal.deciders import Not, One, Union
    if isinstance(tree, One):
        return x == tree.point
    if isinstance(tree, Not):
        return not tree_member(tree.inner, x)
    if isinstance(tree, Union):
        return any(tree_member(p, x) for p in tree.parts)
    raise TypeError(tree)


def tree_text(tree) -> str:
    from jreal.deciders import Not, One, Union
    if isinstance(tree, One):
        return f"one {tree.point}"
    if isinstance(tree, Not):
        return f"not {tree_text(tree.inner)}"
    return "union " + " ".join(f"({tree_text(p)})" for p in tree.parts)


# A tree's cost at n is set by the first leaf, in the order tree_text
# prints them, that n satisfies: on a nested union about 13k contractions
# for the first leaf, 30k for the second, 45k for the third and 15k for
# none.  random_tree's mix varies too much in cost from seed to seed, so
# each slot holds one shape (a point, a negated point, a two-leaf union,
# two nested unions, and the heaviest, a nested union with a negated part)
# and says of each leaf whether its point is low, inside jdec table's range
# 0..TABLE_UPTO, or high, in TABLE_UPTO+1..7.  A tree's points are
# distinct, so which leaf each n of its runs and of its table falls on is
# the same for every seed.
TABLE_UPTO = 3
TREE_SLOTS = (("one", "L"), ("not one", "H"), ("union (one) (one)", "HL"),
              ("union (one) (union (one) (one))", "LHL"),
              ("union (one) (union (one) (one))", "HLH"),
              ("union (one) (union (not one) (one))", "HLL"))


def new_tree(rng: Random, shape: str, pattern: str, relabel: list[int]):
    """(tree, run points): a tree of the shape with distinct points, low or
    high as the pattern says, and six distinct n for its runs: its points,
    then others, half of them low.  rng draws the same for every seed;
    relabel, the seed's permutation of 0..7 that keeps low points low,
    renames what it draws."""
    from jreal.deciders import parse_dec
    low = rng.sample(range(TABLE_UPTO + 1), pattern.count("L"))
    high = rng.sample(range(TABLE_UPTO + 1, 8), pattern.count("H"))
    points = [low.pop() if c == "L" else high.pop() for c in pattern]
    fill = 6 - len(points)
    ns = (points
          + rng.sample([v for v in range(TABLE_UPTO + 1) if v not in points],
                       fill // 2)
          + rng.sample([v for v in range(TABLE_UPTO + 1, 8) if v not in points],
                       fill - fill // 2))
    named = iter(relabel[p] for p in points)
    tree = parse_dec(re.sub("one", lambda _: f"one {next(named)}", shape))
    return tree, [relabel[n] for n in ns]


# ---------------------------------------------------------------------------
# closed sentences of arithmetic, evaluated here


def _term(rng: Random, names: tuple[str, ...], size: int):
    """(text, evaluator) of a small term over the bound names."""
    roll = rng.random()
    if size <= 0 or roll < 0.35:
        if names and rng.random() < 0.6:
            v = rng.choice(names)
            return v, lambda env, v=v: env[v]
        c = rng.randrange(5)
        return str(c), lambda env, c=c: c
    if roll < 0.55:
        t, f = _term(rng, names, size - 1)
        return f"S {t}" if " " not in t else f"S ({t})", lambda env: f(env) + 1
    a, fa = _term(rng, names, size - 1)
    b, fb = _term(rng, names, size - 1)
    if roll < 0.8:
        return f"({a} + {b})", lambda env: fa(env) + fb(env)
    return f"({a} * {b})", lambda env: fa(env) * fb(env)


def _atom(rng: Random, names: tuple[str, ...]):
    a, fa = _term(rng, names, 2)
    b, fb = _term(rng, names, 2)
    if rng.random() < 0.5:
        return f"{a} = {b}", lambda env: fa(env) == fb(env)
    return f"{a} < {b}", lambda env: fa(env) < fb(env)


def _formula(rng: Random, names: tuple[str, ...], size: int,
             quantifiers: str, forall_bound: int):
    """(text, truth) of a formula; quantifiers is '', 'E' or 'A'."""
    roll = rng.random()
    if quantifiers and roll < 0.5:
        q = rng.choice(quantifiers)
        var = "xyzuvw"[len(names)]
        if q == "A":
            # a bounded universal's realizer depends on its body only
            # through the body's connectives, so the body is an atom: all
            # universals of one bound share one realizer, and apply_cached
            # shares their instance runs alike for every seed
            bound = forall_bound
            body, fb = _atom(rng, names + (var,))
        else:
            bound = rng.randrange(2, 5)
            body, fb = _formula(rng, names + (var,), size - 1, "",
                                forall_bound)
        if q == "A":
            return (f"forall {var} < {bound}. {body}",
                    lambda env: all(fb({**env, var: k}) for k in range(bound)))
        return (f"exists {var} < {bound}. {body}",
                lambda env: any(fb({**env, var: k}) for k in range(bound)))
    if size <= 0 or roll < 0.6:
        return _atom(rng, names)
    a, fa = _formula(rng, names, size - 1, "", forall_bound)
    b, fb = _formula(rng, names, size - 1, "", forall_bound)
    if roll < 0.75:
        return f"({a}) /\\ ({b})", lambda env: fa(env) and fb(env)
    if roll < 0.9:
        return f"({a}) \\/ ({b})", lambda env: fa(env) or fb(env)
    return f"({a}) -> ({b})", lambda env: (not fa(env)) or fb(env)


def sentence(rng: Random, want: bool, quantifiers: str,
             implications: bool = True, forall_bound: int = 3) -> str:
    """A closed sentence whose truth, by direct evaluation, is ``want``.

    A bounded universal's realizer grows with its bound: from 3 on,
    ``realize build`` dies printing it (the 4300-digit limit on integer
    text), so sentences for build take ``forall_bound=2``."""
    while True:
        text, truth = _formula(rng, (), 2, quantifiers, forall_bound)
        if (truth({}) == want
                and (not quantifiers or text.startswith(("forall", "exists")))
                and (implications or "->" not in text)):
            return text


# ---------------------------------------------------------------------------
# certify


def _cert_chain(rng: Random, a: int, depth: int, window: int):
    """A certified member of the closure of {a}: (x, cert text)."""
    from jreal import coding, prog
    from jreal.bracket import lam
    from jreal.certs import Base, Lift, show_cert
    from jreal.terms import App, K, Num, Var, ap, encode_term
    pool = [(coding.pair(0, a), Base(a))]
    for _ in range(depth):
        x1, c1 = rng.choice(pool)
        x2, c2 = rng.choice(pool)
        threshold = rng.randrange(3)
        points = range(threshold, threshold + window)
        if rng.random() < 0.4:
            e = encode_term(App(K, Num(x1)))
            tails = tuple((m, c1) for m in points)
        else:
            split = threshold + rng.randrange(window)
            e = encode_term(lam("m", prog.ite(ap(prog.LT01, Var("m"), Num(split)),
                                              Num(x1), Num(x2))))
            tails = tuple((m, c1 if m < split else c2) for m in points)
        pool.append((coding.pair(1, e), Lift(threshold, tails)))
    x, cert = pool[-1]
    return x, show_cert(cert)


# kind -> queries of that kind in every round
CERTIFY_ROUND = {"jdec run": 8, "jdec table": 2, "jdec build": 1,
                 "realize check": 4, "realize build": 2, "realize corpus": 1,
                 "jcert check": 4}


def certify(rng: Random, work: pathlib.Path, rel: str) -> list[Query]:
    from jreal.formulas import parse_formula
    from jreal.realizes import build_delta0

    dec_pol = (6, 1, 200_000)
    real_pol = (4, 2, 200_000)
    cert_pol = (8, 2, 200_000)
    order = Random("certify order")
    # trees and their runs share leaf deciders, and so apply_cached
    # entries, where they share points; which points they share comes from
    # a generator of its own, the same for every seed, and the seed only
    # renames points, low among low and high among high
    scale = Random("certify trees")
    relabel = (rng.sample(range(TABLE_UPTO + 1), TABLE_UPTO + 1)
               + rng.sample(range(TABLE_UPTO + 1, 8), 7 - TABLE_UPTO))
    # slot i of trees and builds always holds an input of the same class,
    # so cycling over slots spreads queries evenly over the classes
    trees: list = [None] * len(TREE_SLOTS)
    builds: list = [None] * 4
    checks, certs, corpora = [], [], []

    def add_tree(k: int):
        slot = k % len(TREE_SLOTS)
        tree, ns = new_tree(scale, *TREE_SLOTS[slot], relabel)
        path = f"{rel}/tree{k}.dec"
        (work / f"tree{k}.dec").write_text(tree_text(tree) + "\n")
        # a tree's run points come round in an order the same for every
        # seed, so which leaves its runs meet, and which runs repeat an
        # earlier one, are too
        trees[slot] = (tree, path, k, ns, Cycle(order, range(6)))

    def add_check(k: int):
        # true sentences get a realizer built through the API, false ones an
        # arbitrary code; realizers of bounded universals run to thousands
        # of digits, so those sentences go to build and corpus
        phi = sentence(rng, True, ("", "E")[k % 2])
        checks.append((phi, build_delta0(parse_formula(phi)), True))
        checks.append((sentence(rng, False, ""), rng.randrange(64), False))

    def add_cert(k: int):
        members = frozenset(rng.sample(range(12), 3))
        a = rng.choice(sorted(members))
        x, text = _cert_chain(rng, a, 1 + k % 3, cert_pol[1])
        # one in four targets leaves out the chain's base payload
        good = k % 4 != 3
        target = members if good else frozenset(range(12)) - {a}
        (work / f"cert{k}.txt").write_text(text + "\n")
        certs.append((x, "{" + ",".join(map(str, sorted(target))) + "}",
                      f"{rel}/cert{k}.txt", good))

    def add_corpus(k: int):
        # a corpus report merges the caveats of all its cases, so no case
        # can show that a Realized verdict came from sampled antecedents;
        # its false sentences hold no implication and must be Refuted
        corpus = work / f"corpus{k}"
        corpus.mkdir()
        expect = {}
        for i in range(3):
            (corpus / f"true{i}.case").write_text(
                f"formula: {sentence(rng, True, ('', 'E', 'A')[i])}\n")
            (corpus / f"false{i}.case").write_text(
                f"formula: {sentence(rng, False, '', implications=False)}\n"
                f"e: {rng.randrange(64)}\nexpect: refuted\n")
            expect[f"true{i}"] = ("Realized",)
            expect[f"false{i}"] = ("Refuted",)
        corpora.append((f"{rel}/corpus{k}", expect))

    def refresh(k: int):
        # each round brings one new input of every sort and keeps the most
        # recent few, so a steady share of queries repeats earlier work
        add_tree(k)
        add_check(k)
        builds[k % 4] = sentence(rng, True, ("", "E", "", "A")[k % 4],
                                 forall_bound=2)
        add_cert(k)
        add_corpus(k)
        for pool, size in ((checks, 8), (certs, 6), (corpora, 2)):
            del pool[:-size]

    # pool slots are picked in a fixed rotation, not a shuffled one, so how
    # many queries meet a cold input, and at what age, is the same for
    # every seed: a new tree or a bounded universal's first build costs
    # ten to a hundred times a repeat
    pick = {kind: itertools.cycle(range(size)) for kind, size in (
        ("jdec run", 6), ("jdec table", 6), ("jdec build", 6),
        ("realize check", 8), ("realize build", 4), ("realize corpus", 2),
        ("jcert check", 6))}

    def make(kind: str) -> Query:
        i = next(pick[kind])
        if kind == "jdec run":
            tree, path, _, ns, turn = trees[i]
            n = ns[turn()]
            want = "In" if tree_member(tree, n) else "Out"
            return Query(["jdec", "run", path, "--n", str(n),
                          *policy_flags(*dec_pol)], kind, dec_pol,
                         {f"n={n}": (want,)})
        if kind == "jdec table":
            tree, path, _, _, _ = trees[i]
            return Query(["jdec", "table", path, "--upto", str(TABLE_UPTO),
                          *policy_flags(*dec_pol)], kind, dec_pol,
                         {f"n={n}": ("In" if tree_member(tree, n) else "Out",)
                          for n in range(TABLE_UPTO + 1)})
        if kind == "jdec build":
            tree, _, k, _, _ = trees[i]
            out = f"{rel}/built{k}.dec"
            text = tree_text(tree)
            return Query(["jdec", "build", text, "-o", out,
                          *policy_flags(*dec_pol)], kind, dec_pol,
                         {"build": ("Built",)}, ("file", out, text + "\n"))
        if kind == "realize check":
            phi, e, truth = checks[i]
            return Query(["realize", "check", "--formula", phi, "--e", str(e),
                          *policy_flags(*real_pol)], kind, real_pol,
                         {"check": ("Realized",) if truth else ("Refuted",)})
        if kind == "realize build":
            return Query(["realize", "build", "--formula", builds[i],
                          *policy_flags(*real_pol)], kind, real_pol,
                         {"build": ("Built",), "selfcheck": ("Realized",)})
        if kind == "realize corpus":
            path, expect = corpora[i]
            return Query(["realize", "corpus", path, *policy_flags(*real_pol)],
                         kind, real_pol, dict(expect))
        if kind == "jcert check":
            x, target, path, good = certs[i]
            return Query(["jcert", "check", "--x", str(x), "--set", target,
                          "--cert", path, *policy_flags(*cert_pol)], kind,
                         cert_pol,
                         {"cert": ("accepted",) if good else ("rejected",)})
        raise ValueError(kind)

    return _rounds(CERTIFY_ROUND, make, refresh)


# ---------------------------------------------------------------------------
# search


# Realizers are drawn from 1..41 without 35: asm exp with fuel 400 or more
# does not finish on 35 within minutes, as codes 631, 2467 and 3027
# applied to it build a value whose code encode_term cannot compute.
REALIZERS = [r for r in range(1, 42) if r != 35]


def _assembly(rng: Random, label: str) -> tuple[list[str], list[frozenset]]:
    # three points and four realizers, as tracker search costs scale with
    # the source's realizer count
    points = [f"{label}{k}" for k in range(3)]
    sizes = [1, 1, 2]
    rng.shuffle(sizes)
    sets = [frozenset(rng.sample(REALIZERS, n)) for n in sizes]
    return points, sets


def _asm_text(points, sets) -> str:
    return "".join(f"point {p} realizers {{{','.join(map(str, sorted(s)))}}}\n"
                   for p, s in zip(points, sets))


def excluded_maps(A, B) -> set[tuple[str, ...]]:
    """Maps A -> B that no tracker can track: a realizer shared by two
    points whose images have disjoint realizer sets."""
    from itertools import product
    (pa, sa), (pb, sb) = A, B
    out = set()
    for images in product(range(len(pb)), repeat=len(pa)):
        owners: dict[int, set[int]] = {}
        for x, i in enumerate(images):
            for r in sa[x]:
                owners.setdefault(r, set()).add(i)
        if any(not (sb[i] & sb[j]) for idxs in owners.values()
               for i in idxs for j in idxs if i != j):
            out.add(tuple(pb[i] for i in images))
    return out


SEARCH_ROUND = {"asm exp": 6, "asm track": 3, "asm product": 1, "asm sub": 1}


def search(rng: Random, work: pathlib.Path, rel: str) -> list[Query]:
    from itertools import product
    from jreal.bracket import lam
    from jreal.kit import A_CODE
    from jreal.prog import tag0
    from jreal.terms import Num, encode_term

    asms = []
    track_pol = (4, 2, 200_000)

    # the assemblies come from a generator of their own, the same for every
    # seed: a search reuses the cached runs of earlier searches on the
    # realizers they share, and which of its codes' outputs land in which
    # realizer sets, and so how much certificate search follows, depends on
    # the realizers' values themselves; renaming the realizers by seed
    # moved the search work of a run by up to a quarter.  The seed draws
    # the track, product and sub queries.
    shapes = Random("search assemblies")

    def refresh(k: int):
        # one new assembly a round, with newly drawn realizers, so tracker
        # search keeps meeting applications it has not run before
        points, sets = _assembly(shapes, "abcde"[k % 5])
        (work / f"asm{k}.asm").write_text(_asm_text(points, sets))
        asms.append((points, sets, f"{rel}/asm{k}.asm"))
        del asms[:-5]

    # which pool slots and which bound and fuel each search gets come round
    # in an order of their own, the same for every seed: a search reuses
    # the cached runs of earlier searches on the same source and fuel, and
    # how much depends on that order; the seed draws only the assemblies
    order = Random("search order")
    src, dst = Cycle(order, range(5)), Cycle(order, range(5))
    # cost grows with both, so every pair comes round once per pass
    limits = Cycle(order, itertools.product((1024, 2048, 3072, 4096),
                                            (200, 400, 600)))

    def make(kind: str) -> Query:
        if kind == "asm exp":
            (pa, sa, fa), (pb, sb, fb) = asms[src()], asms[dst()]
            bound, fuel = limits()
            pol = (3, 2, fuel)
            return Query(["asm", "exp", fa, fb, "--bound", str(bound),
                          *policy_flags(*pol)], kind, pol, {},
                         ("exp", sorted(product(pb, repeat=len(pa))),
                          sorted(excluded_maps((pa, sa), (pb, sb)))))
        if kind == "asm track":
            (pa, sa, fa), (pb, sb, fb) = rng.choice(asms), rng.choice(asms)
            table = [rng.randrange(len(pb)) for _ in pa]
            if rng.random() < 0.5:
                # the unit tracker sends r to <0,r>: it tracks the map
                # exactly when each realizer lies in its image's set
                tracker = A_CODE
                ok = all(sa[x] <= sb[i] for x, i in enumerate(table))
            else:
                # a constant tracker lands in one image's set
                i = rng.randrange(len(pb))
                table = [i] * len(pa)
                tracker = encode_term(lam("x", tag0(Num(min(sb[i])))))
                ok = True
            mapping = ",".join(f"{p}:{pb[i]}" for p, i in zip(pa, table))
            return Query(["asm", "track", fa, "--dst", fb, "--map", mapping,
                          "--tracker", str(tracker), *policy_flags(*track_pol)],
                         kind, track_pol,
                         {"tracking": ("Verified",) if ok else ("Failed",)})
        if kind == "asm product":
            (pa, _, fa), (pb, _, fb) = rng.choice(asms), rng.choice(asms)
            return Query(["asm", "product", fa, fb, *policy_flags(*track_pol)],
                         kind, track_pol,
                         {"points": (str(len(pa) * len(pb)),),
                          "proj-left": ("Verified",),
                          "proj-right": ("Verified",)})
        if kind == "asm sub":
            pa, _, fa = rng.choice(asms)
            keep = sorted(rng.sample(pa, rng.randrange(1, len(pa) + 1)))
            return Query(["asm", "sub", fa, "--points", ",".join(keep),
                          *policy_flags(*track_pol)], kind, track_pol,
                         {"tracking": ("Verified",), "points": ("Live",)})
        raise ValueError(kind)

    return _rounds(SEARCH_ROUND, make, refresh)


# ---------------------------------------------------------------------------
# limit


def _linear(rng: Random) -> tuple[str, int, int]:
    """A model element a + b n as (text, a, b); b = 0 embeds a natural."""
    a, b = rng.randrange(6), rng.choice((0, 0, 1, 2))
    if b == 0:
        return str(a), a, 0
    poly = " + ".join(x for x in (str(a) if a else "",
                                  "n" if b == 1 else f"{b} n") if x)
    return f"mod 1: 0 -> {poly}", a, b


def _eventually(a1: int, b1: int, a2: int, b2: int, op: str) -> bool:
    # linear functions compare along any unbounded selector as they do
    # at a large argument
    n = 10**6
    u, v = a1 + b1 * n, a2 + b2 * n
    return u == v if op == "=" else u < v


LIMIT_ROUND = {"skolem extend": 2, "skolem sign": 4, "skolem eval": 2,
               "skolem standard": 1, "skolem transfer": 1,
               "doctrine laws": 2, "doctrine lfp": 2,
               "doctrine uniformity": 1}


def limit(rng: Random, work: pathlib.Path, rel: str) -> list[Query]:
    from jreal.doctrine import random_doctrine, show_doctrine

    docs = ["doctrines/d4.doc", "doctrines/d8.doc"]
    for i in range(2):
        path = work / f"random{i}.doc"
        path.write_text(show_doctrine(random_doctrine(rng, 6)))
        docs.append(f"{rel}/random{i}.doc")
    sizes = {docs[0]: 4, docs[1]: 8, docs[2]: 6, docs[3]: 6}

    transfer = work / "transfer"
    transfer.mkdir()
    names = []
    # every template once, as their costs differ several times over; the
    # seed picks only the constants
    for i, template in enumerate((
            "formula: x + {c} = {c} + x\nargs: x=mod 1: 0 -> n\n",
            "formula: x < x + {c}\nargs: x=mod 1: 0 -> {c} n\n",
            "formula: x * x < x * x + {c}\nargs: x=mod 1: 0 -> n\n",
            "formula: x + {c} = {c2}\nargs: x=2\n",
            "formula: forall x. x < S x\n",
            "formula: forall x. exists y. x + {c} < y\n")):
        c = rng.randrange(1, 6)
        (transfer / f"case{i}.case").write_text(template.format(c=c, c2=c + 2))
        names.append(f"case{i}")
    pol = (4, 4, 200_000)
    flags = policy_flags(*pol)
    steps_cycle = Cycle(Random("limit order"), range(40, 161, 10))
    # d8 costs a hundred times d4, so the doctrines come round in a fixed
    # order and every seed meets d8 as often
    doc_cycle = {kind: itertools.cycle(docs) for kind in LIMIT_ROUND}

    def make(kind: str) -> Query | list[Query]:
        if kind == "skolem extend":
            steps = steps_cycle() + rng.randrange(10)
            return Query(["skolem", "extend", "--steps", str(steps), *flags],
                         kind, pol, {"selector": ("Increasing",),
                                     "chain": ("Nested",),
                                     "live": ("Infinite",)})
        if kind == "skolem sign":
            i, j = rng.sample(range(40), 2)
            return [Query(["skolem", "sign", str(a), str(b), *flags], kind,
                          pol, {}, ("sign", f"{a},{b}"))
                    for a, b in ((i, j), (j, i))]
        if kind == "skolem eval":
            (tx, a1, b1), (ty, a2, b2) = _linear(rng), _linear(rng)
            op = rng.choice(("=", "<"))
            want = _eventually(a1, b1, a2, b2, op)
            return Query(["skolem", "eval", "--formula", f"x {op} y",
                          "--args", f"x={tx} | y={ty}", *flags], kind, pol,
                         {"eval": ("True",) if want else ("False",)})
        if kind == "skolem standard":
            text, a, b = _linear(rng)
            if b == 0:
                text = f"mod 1: 0 -> {a}"
            return Query(["skolem", "standard", text, *flags], kind, pol,
                         {"standard": ("Unbounded",) if b else ("Standard",)})
        if kind == "skolem transfer":
            return Query(["skolem", "transfer", "--corpus", f"{rel}/transfer",
                          *flags], kind, pol,
                         {n: ("Consistent",) for n in names})
        if kind == "doctrine laws":
            return Query(["doctrine", "laws", next(doc_cycle[kind]), *flags],
                         kind, pol, {"operator": ("Local",)})
        if kind == "doctrine lfp":
            doc = next(doc_cycle[kind])
            mask = rng.randrange(1, 1 << sizes[doc])
            return Query(["doctrine", "lfp", doc, "--set", str(mask), *flags],
                         kind, pol, {"agree": ("Equal",)})
        if kind == "doctrine uniformity":
            return Query(["doctrine", "uniformity", next(doc_cycle[kind]),
                          *flags], kind, pol, {})
        raise ValueError(kind)

    return _rounds(LIMIT_ROUND, make)


# ---------------------------------------------------------------------------


def _rounds(mix: dict[str, int], make, refresh=None) -> list[Query]:
    """ROUNDS rounds of the mix; refresh(k) renews the input pools, and
    runs for a few rounds first so the first round draws from full pools."""
    out: list[Query] = []
    order = Random("round order")
    deck = [kind for kind, n in mix.items() for _ in range(n)]
    warm = 6 if refresh else 0
    for k in range(warm):
        refresh(k)
    for r in range(ROUNDS):
        if refresh:
            refresh(warm + r)
        order.shuffle(deck)
        for kind in deck:
            made = make(kind)
            out.extend(made if isinstance(made, list) else [made])
    return out


def generate(workload: str, seed: int, root: pathlib.Path,
             work: pathlib.Path) -> list[Query]:
    """The query stream of one workload and seed; inputs go under work."""
    rng = Random(f"{workload}/{seed}")
    rel = work.relative_to(root).as_posix()
    if workload == "certify":
        return certify(rng, work, rel)
    if workload == "search":
        return search(rng, work, rel)
    if workload == "limit":
        return limit(rng, work, rel)
    raise ValueError(f"unknown workload {workload!r}")
