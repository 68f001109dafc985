"""Naive references for the closure engine: spans as explicit sets.

Deliberately independent of ``skewsimple.closure``: sets of payload tuples,
operators as callables, and skew ideal operators computed from
``SkewElement`` products rather than from the context's operator matrices.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

Vector = tuple[int, ...]


def abelian_span(
    seeds: Iterable[Vector],
    operators: Sequence[Callable[[Vector], Vector]],
    add: Callable[[Vector, Vector], Vector],
    zero: Vector,
) -> set[Vector]:
    """Smallest additive subgroup containing seeds and stable under operators.

    Operators must be additive maps; stability on a generating set then
    extends to the whole span, so each operator is only ever applied to the
    generators actually inserted.
    """
    span = {zero}
    pending = list(seeds)
    while pending:
        x = pending.pop()
        if x in span:
            continue
        # Fold the new generator in: the enlarged span is the union of the
        # cosets span + k*x until the cycle closes.
        base = list(span)
        y = x
        while y not in span:
            span.update(add(b, y) for b in base)
            y = add(y, x)
        pending.extend(op(x) for op in operators)
    return span


def tuple_add_mod(n: int):
    return lambda u, v: tuple((x + y) % n for x, y in zip(u, v))


def skew_operators(ctx):
    """Left and right multiplication by each module generator of the skew ring."""
    ops = []
    for b, h in ctx.module_generators:
        mono = ctx.monomial(b, h)
        ops.append(lambda vec, m=mono: ctx.vec_of(m * ctx.element_of_vec(vec)))
        ops.append(lambda vec, m=mono: ctx.vec_of(ctx.element_of_vec(vec) * m))
    return ops


def naive_skew_span(ctx, generators, ops=None) -> set[Vector]:
    """The two-sided ideal generated by the given skew elements, as a vector set."""
    return abelian_span([ctx.vec_of(r) for r in generators],
                        ops if ops is not None else skew_operators(ctx),
                        tuple_add_mod(ctx.char), (0,) * ctx.dim)
