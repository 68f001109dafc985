"""Naive references: spans as explicit sets, and the centre work done
element by element.

Deliberately independent of ``skewsimple.closure``: sets of payload tuples,
operators as callables, and skew ideal operators (callables or matrices, for
every module generator) computed from ``SkewElement`` products rather than
from the context's operator matrices.
The centralizer of A is found by multiplying every payload of A against
every basis payload, slot by slot, and the centre's class choices by
transporting each of those payloads along its conjugacy class.
The law references check every pair of payloads (automorphism laws) or of
skew ring elements (the augmentation).
The centre references run over every element of the materialized centre or
ideal: the field test multiplies every pair of central elements, the
coefficient laws and the containment check visit every central element, and
the smallest ideal member is found by building each member as a
``SkewElement``. Centrality is tested by multiplying the element with every
coefficient generator and every unit monomial on both sides.
The A-level references walk every payload of A: the centre, the fixed ring
and the units implementing an automorphism by conjugation; the field test
on an explicit element set multiplies every pair.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

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


def module_generator_operators(ctx) -> list:
    """The matrices of left and right multiplication by each module generator
    b*u_h, over Z/char: column j is the product with the j-th coordinate
    vector, computed as a ``SkewElement`` product."""
    basis = [ctx.element_of_vec(tuple(int(i == j) for i in range(ctx.dim)))
             for j in range(ctx.dim)]
    mats = []
    for b, h in ctx.module_generators:
        mono = ctx.monomial(b, h)
        mats.append(np.array([ctx.vec_of(mono * e) for e in basis], dtype=np.int64).T)
        mats.append(np.array([ctx.vec_of(e * mono) for e in basis], dtype=np.int64).T)
    return mats


def naive_skew_span(ctx, generators, ops=None) -> set[Vector]:
    """The two-sided ideal generated by the given skew elements, as a vector set."""
    return abelian_span([ctx.vec_of(r) for r in generators],
                        ops if ops is not None else skew_operators(ctx),
                        tuple_add_mod(ctx.char), (0,) * ctx.dim)


def naive_has_inverse(a, elements, *, one) -> bool:
    """Whether some member b of the set has a * b == one."""
    return any(a * b == one for b in elements)


def naive_field_obstruction(elements, *, zero, one):
    """A nonzero member with no inverse in the set, or None when it is a field."""
    members = set(elements)
    for a in members:
        if a == zero:
            continue
        if not naive_has_inverse(a, members, one=one):
            return a
    return None


def is_field(elements, *, zero, one) -> bool:
    """Whether a finite commutative unital closed set is a field.

    The input must be closed under + and * and contain 0 and 1; violations
    raise DomainError (non-commutativity included).
    """
    from skewsimple import DomainError

    members = set(elements)
    if one not in members or zero not in members:
        raise DomainError("input is not unital: missing 0 or 1")
    listed = list(members)
    for i, a in enumerate(listed):
        for b in listed[i:]:
            ab = a * b
            if ab != b * a:
                raise DomainError("input is not commutative")
            if ab not in members or (a + b) not in members:
                raise DomainError("input is not closed under ring operations")
    return naive_field_obstruction(members, zero=zero, one=one) is None


def naive_center(ring) -> list:
    """The payloads commuting with every basis payload, in canonical order."""
    gens = ring.additive_generators()
    return [a for a in ring.payloads()
            if all(ring.mul(a, b) == ring.mul(b, a) for b in gens)]


def naive_fixed_payloads(action) -> set:
    """The payloads fixed by every automorphism of the action."""
    return {a for a in action.ring.payloads()
            if all(auto.apply(a) == a for auto in action.autos)}


def naive_is_inner(auto):
    """The first unit v (canonical order) with auto(b) = v b v^-1 on every
    basis payload b, or None."""
    ring = auto.ring
    gens = ring.additive_generators()
    for v in ring.units:
        w = ring.try_invert_payload(v)
        if all(auto.apply(b) == ring.mul(ring.mul(v, b), w) for b in gens):
            return v
    return None


def naive_center_containment(ctx, centre) -> dict:
    """``center_containment_check(ctx).as_json()``, computed by visiting every
    element of the given centre (in rank order); the field verdict comes from
    ``naive_field_obstruction``."""
    from skewsimple.actions import is_G_simple
    from skewsimple.criteria import CheckReport, CriterionVerdict

    report = CheckReport("center_containment")
    contained = all(z.support <= {0} for z in centre)
    fixed_central = naive_fixed_payloads(ctx.action) & set(naive_center(ctx.ring))
    center_payloads = {z.coeffs.get(0, ctx.ring.zero) for z in centre if z.support <= {0}}
    equals_fixed_central = contained and center_payloads == fixed_central
    is_field = naive_field_obstruction(centre, zero=ctx.zero, one=ctx.one) is None
    report.verdicts["center_in_identity_component"] = CriterionVerdict(
        "center_in_identity_component", contained,
        witness=None if contained else {
            "element": next(z for z in centre if not z.support <= {0}).serialize()})
    report.verdicts["center_equals_fixed_central"] = CriterionVerdict(
        "center_equals_fixed_central", equals_fixed_central)
    report.verdicts["center_is_field"] = CriterionVerdict("center_is_field", is_field)
    report.conclusions["containment_equivalence"] = contained == equals_fixed_central
    if bool(is_G_simple(ctx.action).value) and contained:
        report.conclusions["containment_gives_field"] = is_field
    else:
        report.conclusions["containment_gives_field"] = None
    report.notes.append("orderable-group converse: out of finite scope "
                        "(the only finite orderable group is trivial)")
    return report.as_json()


def naive_center_laws(ctx, centre) -> tuple[bool, bool]:
    """(coefficient and transport laws hold, coefficients lie in the fixed
    ring), checked on every element of the given centre."""
    ring, group, action = ctx.ring, ctx.group, ctx.action
    gens = ring.additive_generators()
    fixed = {a for a in ring.payloads() if all(auto.apply(a) == a for auto in action.autos)}
    laws_ok = fixed_ok = True
    for z in centre:
        for g, a in z.coeffs.items():
            if a not in fixed:
                fixed_ok = False
            if any(ring.mul(b, a) != ring.mul(a, action.apply(g, b)) for b in gens):
                laws_ok = False
            for h in range(group.order):
                tgt = group.mul_table[group.mul_table[h][g]][group.inv_table[h]]
                if z.coeffs.get(tgt, ring.zero) != action.apply(h, a):
                    laws_ok = False
    return laws_ok, fixed_ok


def naive_smallest_member(ctx, ideal):
    """The nonzero member of smallest (support size, rank), member by member."""
    best = best_key = None
    for vec in ideal.iter_vectors():
        r = ctx.element_of_vec(vec)
        if r.is_zero():
            continue
        key = (len(r.support), ctx.rank_of(r))
        if best_key is None or key < best_key:
            best, best_key = r, key
    return best


def naive_centralizer_components(ctx) -> list[list]:
    """Per slot g, every payload a with a sigma_g(b) = b a for all basis
    payloads b, in canonical payload order."""
    ring = ctx.ring
    gens = ring.additive_generators()
    return [[a for a in ring.payloads()
             if all(ring.mul(a, auto.apply(b)) == ring.mul(b, a) for b in gens)]
            for auto in ctx.action.autos]


def naive_center_classes(ctx) -> list[list[dict]]:
    """Per conjugacy class of G, every coefficient map (zero entries left out)
    that a central element carries there: each member a of C_rep transported
    by a_{h rep h^-1} = sigma_h(a), kept when the transport is consistent and
    lands in the C_g."""
    ring, group, action = ctx.ring, ctx.group, ctx.action
    comps = naive_centralizer_components(ctx)
    comp_sets = [set(c) for c in comps]
    classes = []
    for cls in group.conjugacy_classes:
        rep = min(cls)
        choices = []
        for a in comps[rep]:
            assignment: dict = {}
            ok = True
            for h in range(group.order):
                target = group.mul_table[group.mul_table[h][rep]][group.inv_table[h]]
                image = action.apply(h, a)
                if assignment.get(target, image) != image:
                    ok = False
                    break
                assignment[target] = image
            if ok and all(val in comp_sets[g] for g, val in assignment.items()):
                choices.append({g: val for g, val in assignment.items() if val != ring.zero})
        classes.append(choices)
    return classes


def naive_automorphism_violation(auto) -> str | None:
    """The first automorphism law the map breaks, or None: bijectivity,
    f(1) = 1, then additivity and multiplicativity on every pair of payloads."""
    ring = auto.ring
    payloads = list(ring.payloads())
    if len({auto.apply(a) for a in payloads}) != ring.size:
        return "automorphism not bijective"
    if auto.apply(ring.one) != ring.one:
        return "automorphism does not fix 1"
    for a in payloads:
        for b in payloads:
            if auto.apply(ring.add(a, b)) != ring.add(auto.apply(a), auto.apply(b)):
                return "automorphism not additive"
            if auto.apply(ring.mul(a, b)) != ring.mul(auto.apply(a), auto.apply(b)):
                return "automorphism not multiplicative"
    return None


def naive_augmentation_violation(ctx):
    """The first pair (r, s) of skew ring elements, in rank order, with
    eps(rs) != eps(r)eps(s), or None when the augmentation is multiplicative."""
    from skewsimple.skew import augmentation

    elements = list(ctx.elements())
    for r in elements:
        for s in elements:
            if augmentation(r * s) != augmentation(r) * augmentation(s):
                return r, s
    return None


def naive_is_central(r) -> bool:
    """Commutation of r with every coefficient generator b u_e and every unit
    monomial u_g, by ``SkewElement`` products."""
    ctx = r.ctx
    for b in ctx.ring.additive_generators():
        mono = ctx.monomial(b, 0)
        if mono * r != r * mono:
            return False
    for g in range(1, ctx.group.order):
        u = ctx.unit_monomial(g)
        if u * r != r * u:
            return False
    return True
