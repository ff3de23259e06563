"""Per-layer spans recorded from outside the program.

``install()`` replaces the layer functions of ``jreal`` with wrappers that
time each call and keep running totals; nothing inside ``src/`` changes.
A module that imported a function by name holds its own binding of the
same object (``apply_cached`` is bound in certs, kit, deciders, realizes
and assemblies), so every binding of a wrapped object in every ``jreal``
module is replaced.

Spans are aggregated as they close instead of being stored: a run makes
millions of calls.  A layer's self time is its spans' time minus the time
of the spans they contain.  The root span is ``cli.main``, so the cli
layer's self time is argument parsing, dispatch and report emission.

Left unwrapped, because a span would cost more than the call or the call
recurses per node: everything in ``coding`` (pairing and sequence codes,
used per contraction), ``formulas``, ``jsets``, ``bracket``, ``prog`` and
``report``; the term builders ``ap``, ``spine``, ``free_vars``, ``subst``
and ``show_term``; the per-node tree walkers ``ground_truth``, ``height``,
``leaves``, ``cert_depth_bound`` and ``show_dec``; quasi-polynomial
arithmetic (``canon``, ``const``, ``ident``, ``qp_add``, ``qp_mul``,
``qp_compose``, ``compare_on_class``); the Skolem per-term helpers
(``iota``, ``apply_fn``, ``term_rep``, the ``mirror_*`` arithmetic); and the
doctrine cell operations (``bits``, ``arrow``, ``wedge``).
"""

from __future__ import annotations

import sys
import time

# layer -> public functions wrapped there; "Class.method" wraps a method
LAYERS = {
    "machine": ("Machine.eval", "eval_term", "eval_to_nat", "apply",
                "apply_many", "apply_cached"),
    "terms": ("encode_term", "decode_term", "decode_term_cached",
              "parse_term"),
    "certs": ("check_cert", "CertSearch.search", "search_cert",
              "lifted_constant", "parse_cert", "show_cert"),
    "kit": ("mirror_a", "mirror_b", "mirror_c", "mirror_d", "mirror_e",
            "mirror_lifted", "wedge_target", "lemma_g", "cor_gh",
            "disjointness_probe", "host_anyzero", "host_leastzero"),
    "deciders": ("decider_code", "decider_term", "run_decider",
                 "run_policy", "parse_dec", "represent_from_graph",
                 "partial_apply"),
    "realizes": ("jrealizes", "build_delta0", "build_sigma1", "nat_env"),
    "assemblies": ("check_tracking", "exponent_finite", "subobject_check",
                   "product", "proj_left", "proj_right", "pairing",
                   "compose", "identity_morphism", "morphism_from_table",
                   "realizer_elements", "table_tracker", "omega_uniformity",
                   "parse_assembly", "show_assembly"),
    "quasipoly": ("of_weight", "enumerate_qp", "index_of", "show_qp",
                  "parse_qp"),
    "skolem": ("initial_chain", "extend_chain", "sign", "show_chain",
               "truth_qf", "transfer_check", "standard_value",
               "is_standard", "parse_elem", "show_elem", "st_assembly"),
    "doctrine": ("lfp_local", "lfp_by_intersection", "pitts_f_finite",
                 "local_laws", "derive_e4", "uniformity_finite",
                 "preorder_witness", "candidate_ops", "parse_doctrine",
                 "show_doctrine"),
    "cli": ("main",),
}

# These recurse once per term or certificate node through their own module's
# binding; only the calls from other modules become spans, so a span is one
# whole encode, decode or print.
PER_NODE = ("encode_term", "decode_term", "show_cert")

# calls counted under their own name, beyond the per-layer totals
MIRRORS = ("mirror_a", "mirror_b", "mirror_c", "mirror_d", "mirror_e",
           "mirror_lifted")


class Tracer:
    """Running totals for one traced run."""

    def __init__(self):
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls: dict[str, int] = {}
        self.contractions = 0
        self.runs = 0
        self.out_of_fuel = 0
        self.wasted = 0
        self.searches = 0
        self.found = 0
        self.codes_scanned = 0
        self.compile_s = 0.0
        self._compiling = 0
        # one child-time accumulator per open span
        self._stack: list[float] = []

    def _span(self, layer: str, key: str, fn, after=None):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        calls.setdefault(key, 0)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                self_s[layer] += span - stack.pop()
                if stack:
                    stack[-1] += span
                calls[key] += 1
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counts read from arguments and results -------------------------

    def _after_eval(self, args, out):
        machine = args[0]
        self.runs += 1
        self.contractions += machine.steps
        if out is None:
            self.out_of_fuel += 1
            self.wasted += machine.steps

    def _after_search(self, args, out):
        self.searches += 1
        if out is not None:
            self.found += 1

    def _after_exponent(self, args, out):
        self.codes_scanned += args[2]

    def _compile_span(self, fn):
        # inclusive time of outermost decider_code calls; inner trees
        # compile recursively through the same wrapper
        def wrapper(*args, **kwargs):
            self._compiling += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._compiling -= 1
                if not self._compiling:
                    self.compile_s += time.perf_counter() - t0

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if name == "jreal" or name.startswith("jreal.")]
        after = {"Machine.eval": self._after_eval,
                 "CertSearch.search": self._after_search,
                 "exponent_finite": self._after_exponent}
        for layer, names in LAYERS.items():
            home = sys.modules[f"jreal.{layer}"]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth,
                            self._span(layer, name, orig, after.get(name)))
                    continue
                orig = getattr(home, name)
                wrapped = self._span(layer, name, orig, after.get(name))
                if name == "decider_code":
                    wrapped = self._compile_span(wrapped)
                for mod in mods:
                    if mod is home and name in PER_NODE:
                        continue
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "contractions": self.contractions,
            "runs": self.runs,
            "out_of_fuel": self.out_of_fuel,
            "wasted": self.wasted,
            "searches": self.searches,
            "found": self.found,
            "codes_scanned": self.codes_scanned,
            "compile_s": self.compile_s,
        }


def layer_metrics(summary: dict, wall_s: float, cache_hits: int,
                  cache_misses: int, queries: int,
                  overhead_ratio: float) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced run."""
    calls = summary["calls"]
    self_s = summary["self_s"]
    contractions = summary["contractions"]
    wall_s = wall_s or 1.0

    def share(layer):
        return self_s[layer] / wall_s

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "machine.contractions": contractions,
        "machine.runs": summary["runs"],
        "machine.out_of_fuel": summary["out_of_fuel"],
        "machine.wasted_contraction_ratio": ratio(summary["wasted"],
                                                  contractions),
        "machine.cache_hits": cache_hits,
        "machine.cache_misses": cache_misses,
        "machine.cache_hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "machine.self_share": share("machine"),
        "machine.contractions_per_s": ratio(contractions, self_s["machine"]),
        "terms.decode_calls": calls["decode_term_cached"] + calls["decode_term"],
        "certs.checks": calls["check_cert"],
        "certs.searches": summary["searches"],
        "certs.search_found_ratio": ratio(summary["found"],
                                          summary["searches"]),
        "kit.mirror_calls": sum(calls[m] for m in MIRRORS),
        "deciders.runs": calls["run_decider"],
        "deciders.compile_share": summary["compile_s"] / wall_s,
        "realizes.checks": calls["jrealizes"],
        "realizes.builds": calls["build_delta0"] + calls["build_sigma1"],
        "assemblies.codes_scanned": summary["codes_scanned"],
        "quasipoly.of_weight_calls": calls["of_weight"],
        "skolem.extend_calls": calls["extend_chain"],
        "doctrine.calls": sum(calls[n] for n in LAYERS["doctrine"]),
        "trace.queries": queries,
        "trace.overhead_ratio": overhead_ratio,
    }
    for layer in LAYERS:
        if layer != "machine":
            out[f"{layer}.self_share"] = share(layer)
    return out

