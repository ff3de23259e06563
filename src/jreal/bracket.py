"""Bracket abstraction with predictable runtime closures.

``compile_lambda`` eliminates one variable using only S and K:

    [x] x       = S K K
    [x] atom    = K atom
    [x] (f a)   = K (f a)            when ``terms.is_value(f a)``
    [x] (f a)   = S ([x] f) ([x] a)  otherwise

A value (``terms.is_value``) is a numeral, a primitive other than nil, or a
partial application whose arguments are again values; it has no free
variables.  Such a subtree can never fire, so freezing it under K is safe,
keeps it shared instead of being rebuilt by every enclosing abstraction, and
keeps compiled code sizes additive under composition.  Nil alone contracts to
the numeral 0, so it is not a value, and freezing it would break exact
template prediction.

Deliberately NO eta-contraction, and no K-collapse beyond that one case.  Two
consequences bought by the restriction, both load-bearing:

* a compiled ``\\z. body`` evaluates to a value without performing any
  application from ``body`` (S-spines only assemble, K only unwraps inert
  trees), so dummy-variable thunks really delay their branch under
  call-by-value;
* applying a compiled ``\\x. body`` contracts to exactly ``body`` with the
  argument value substituted for the variable leaves.  Host mirrors exploit
  this to predict runtime closure values by plain substitution into the
  compiled open term (the template).
"""

from __future__ import annotations

from .terms import App, K, Num, Prim, S, Term, Var, ap, is_value


# marks where the two compiled halves of an application join under S
_JOIN = object()


def compile_lambda(name: str, body: Term) -> Term:
    # post-order with an explicit stack, so a long application compiles
    done: list[Term] = []
    todo: list[Term | object] = [body]
    while todo:
        t = todo.pop()
        if t is _JOIN:
            arg = done.pop()
            done.append(ap(S, done.pop(), arg))
        elif isinstance(t, App) and not is_value(t):
            todo += (_JOIN, t.arg, t.fn)
        elif isinstance(t, Var) and t.name == name:
            done.append(ap(S, K, K))
        else:
            done.append(App(K, t))
    return done[0]


def lam(*parts: str | Term) -> Term:
    """lam("x", "y", body): right-nested bracket abstraction."""
    *names, body = parts
    if not isinstance(body, Prim | Num | Var | App):
        raise TypeError("last argument must be a term")
    for n in reversed(names):
        if not isinstance(n, str):
            raise TypeError("binders must be names")
        body = compile_lambda(n, body)
    return body
