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
``SkewElement``, over the members of a Howell basis listed by
``itertools.product`` over its coefficients. A central element is a unit of
the centre when its multiples of the centre's basis span all of it. Centrality is tested by multiplying the element with every
coefficient generator and every unit monomial on both sides, and by the
dense commutators L_x - R_x of the ring generators, whose kernel on the
centralizer of A is the centre's reference basis; those generators' dense
multiplication matrices are the reference for the block-monomial stack,
and its images of the unit vectors for its packed columns over F_2.
The A-level references walk every payload of A: the centre, the fixed ring
and the units implementing an automorphism by conjugation; the field test
on an explicit element set multiplies every pair.
The Howell reference inserts into a list of rows, one row at a time: every
reduction and every update of the rows above is a loop over the rows, and
closures apply the operators one by one. The linear solver clears a pivot
column row by row, the support slice of the constructive procedures is one
solve over every row of the ideal, and the unit-orbit transforms are one
product each of the unit monomials' dense multiplication matrices. The field
test of a centre takes the dense matrix of x -> z x for one z at a time.
The certificate's draws are one single-vector multiplication matrix and one
product per term; the group laws and inverses are checked entry by entry in
loop order; a coordinate permutation's matrix is built from the image of
each additive generator.
The additive structure (zero, sum, negation) and the canonical order of A
are written out family by family on payloads, and the order of R composes
the coefficient ranks slot by slot; an element of R is decoded from its
coordinates slot by slot.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import product
from math import gcd
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



class NaiveHowell:
    """The Howell normal form of a span in (Z/n)^dim, as a list of rows
    updated one row at a time (the reference for ``closure.HowellBasis``)."""

    def __init__(self, n: int, dim: int) -> None:
        self.n = n
        self.dim = dim
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []
        self.divs: list[int] = []
        self._nonunit = 0

    @property
    def size(self) -> int:
        out = 1
        for d in self.divs:
            out *= self.n // d
        return out

    @property
    def is_full(self) -> bool:
        return len(self.rows) == self.dim and not self._nonunit

    def key(self) -> tuple:
        return tuple(tuple(int(x) for x in row) for row in self.rows)

    def _reduce(self, v: np.ndarray) -> np.ndarray:
        n = self.n
        if not self._nonunit:
            for row, piv in zip(self.rows, self.pivots):
                c = v[piv]
                if c:
                    v = (v - c * row) % n
            return v
        for row, piv, d in zip(self.rows, self.pivots, self.divs):
            q = int(v[piv]) // d
            if q:
                v = (v - q * row) % n
        return v

    def contains(self, vec) -> bool:
        return not np.count_nonzero(self._reduce(np.asarray(vec, dtype=np.int64) % self.n))

    def insert(self, vec) -> bool:
        v = self._reduce(np.asarray(vec, dtype=np.int64) % self.n)
        if not np.count_nonzero(v):
            return False
        pending = self._place(v)
        while pending:
            v = self._reduce(pending.pop())
            if np.count_nonzero(v):
                pending.extend(self._place(v))
        return True

    def _place(self, v: np.ndarray) -> list[np.ndarray]:
        n, rows, pivots, divs = self.n, self.rows, self.pivots, self.divs
        col = int(v.nonzero()[0][0])
        c = int(v[col])
        i = bisect_left(pivots, col)
        rest = []
        if i < len(pivots) and pivots[i] == col:
            row, d = rows.pop(i), divs.pop(i)
            pivots.pop(i)
            self._nonunit -= 1
            g = gcd(d, c)
            t = pow(c // g, -1, d // g)
            s = (g - t * c) // d
            new = self._reduce((s * row + t * v) % n)
            rest.append((row - (d // g) * new) % n)
            rest.append((v - (c // g) * new) % n)
        else:
            g = gcd(c, n)
            m = n // g
            u = pow(c // g, -1, m)
            while gcd(u, n) != 1:
                u += m
            new = (v * u) % n
            if self._nonunit:
                new = self._reduce(new)
        unit_rows = g == 1 and not self._nonunit
        rows.insert(i, new)
        pivots.insert(i, col)
        divs.insert(i, g)
        if g != 1:
            self._nonunit += 1
            rest.append((new * (n // g)) % n)
        for k in range(i):
            row = rows[k]
            if unit_rows:
                c = row[col]
                if c:
                    rows[k] = (row - c * new) % n
                continue
            for m in range(i, len(rows)):
                q = int(row[pivots[m]]) // divs[m]
                if q:
                    row = (row - q * rows[m]) % n
            rows[k] = row
        return rest


def naive_closure(n: int, dim: int, operators, seeds) -> NaiveHowell:
    """The operator-stable span of the seeds, each operator applied on its own
    to every inserted vector, in the insertion order of ``ClosureEngine``,
    which stops at a full span."""
    ops = [np.asarray(op, dtype=np.int64) % n for op in operators]
    basis = NaiveHowell(n, dim)
    pending = [np.asarray(s, dtype=np.int64) for s in seeds]
    while pending:
        vec = pending.pop() % n
        if not basis.insert(vec):
            continue
        if basis.is_full:
            break
        pending.extend(op @ vec for op in ops)
    return basis

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


def naive_is_center_unit(r) -> bool:
    """Whether the central element r is a unit of the centre Z: x -> r x is
    injective on Z, that is the products of r with the rows of Z's Howell
    basis span a submodule as large as Z (the reference for the unit test of
    ``report._check_witness``, which asks whether the ideal RrR = rR is all
    of R instead)."""
    from skewsimple.closure import HowellBasis
    from skewsimple.skew import left_multiplication

    ctx = r.ctx
    n = ctx.char
    op = left_multiplication(ctx, ctx.vec_of(r))
    centre = ctx.center_basis
    image = HowellBasis(n, ctx.dim)
    for row in centre.rows:
        image.insert((op @ row) % n)
    return image.size == centre.size


def naive_element_of_vec(ctx, vec):
    """The element with the given coordinates, decoded slot by slot from a
    tuple of ints, zero coefficients dropped."""
    from skewsimple.skew import SkewElement

    d = ctx.ring.dim
    coeffs = {}
    for g in range(ctx.group.order):
        a = ctx.ring.from_vec(tuple(int(x) for x in vec[g * d:(g + 1) * d]))
        if a != ctx.ring.zero:
            coeffs[g] = a
    return SkewElement(ctx, coeffs)


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



def naive_least_root(p: int, coeffs: list[int]) -> int | None:
    """The least root in F_p of x^k - sum coeffs[i] x^i, from its values at
    every point of F_p at once; None when there is none."""
    xs = np.arange(p, dtype=np.int64)
    value = np.ones(p, dtype=np.int64)
    for c in reversed(coeffs):
        value = (value * xs - c) % p
    roots = np.flatnonzero(value == 0)
    return int(roots[0]) if roots.size else None


def naive_permutation_group(degree: int, gens) -> tuple[list, list, list]:
    """The permutation group generated by one-line permutations, composed
    point by point as tuples: its elements in lexicographic order, its
    multiplication table ((a b)(i) = a(b(i))) and cycle-notation names."""
    identity = tuple(range(degree))
    elems, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = tuple(a[g[i]] for i in range(degree))
                if c not in elems:
                    elems.add(c)
                    nxt.append(c)
        frontier = nxt
    ordered = sorted(elems)
    index = {p: i for i, p in enumerate(ordered)}
    mul = [[index[tuple(a[b[i]] for i in range(degree))] for b in ordered] for a in ordered]
    names = []
    for perm in ordered:
        seen, cycles = set(), []
        for start in range(degree):
            if start in seen or perm[start] == start:
                continue
            cycle, x = [], start
            while x not in seen:
                seen.add(x)
                cycle.append(x)
                x = perm[x]
            cycles.append("(" + " ".join(str(x) for x in cycle) + ")")
        names.append("".join(cycles) or "e")
    return ordered, mul, names

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


def naive_span_members(basis) -> list[Vector]:
    """Every member of a Howell basis's span, as tuples: sum c_i row_i for
    each coefficient vector with 0 <= c_i < n / pivot_i, the coefficient
    vectors from ``itertools.product`` (the last coefficient varies fastest)
    and the sums in Python integers."""
    n, dim = basis.n, basis.dim
    rows = [[int(x) for x in row] for row in basis.rows]
    return [tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % n for j in range(dim))
            for coeffs in product(*[range(n // d) for d in basis.divs])]


def naive_smallest_member(ctx, ideal):
    """The nonzero member of smallest (support size, rank), member by member."""
    best = best_key = None
    for vec in naive_span_members(ideal.basis):
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


def naive_ideal_operators(ctx) -> list[np.ndarray]:
    """The dense matrices of left and right multiplication by each ring
    generator, b_t u_e for the basis payloads b_t and then u_g for g in
    ``group.generators``, as interleaved (L, R) pairs built one matrix per
    generator by ``left_multiplication`` and ``right_multiplication`` (the
    reference for ``SkewContext.ideal_operator_matrices``)."""
    from skewsimple.skew import left_multiplication, right_multiplication

    gens = [tuple(int(i == t) for i in range(ctx.dim)) for t in range(ctx.ring.dim)]
    gens += [ctx.vec_of(ctx.unit_monomial(g)) for g in ctx.group.generators]
    return [op for vec in gens
            for op in (left_multiplication(ctx, vec), right_multiplication(ctx, vec))]


def naive_dense_stack(stack) -> np.ndarray:
    """The dense (K x dim x dim) matrices of a block-monomial stack, placed
    block by block: matrices[k, s] reduced modulo n at block row
    targets[k, s] and block column s of operator k."""
    count, blocks, size = stack.matrices.shape[:3]
    dense = np.zeros((count, stack.dim, stack.dim), dtype=np.int64)
    for k in range(count):
        for s in range(blocks):
            t = int(stack.targets[k, s])
            dense[k, t * size:(t + 1) * size, s * size:(s + 1) * size] = (
                stack.matrices[k, s] % stack.n)
    return dense


def naive_packed_columns(stack) -> list[int]:
    """The packed columns of an F_2 block-monomial stack from its images of
    the unit vectors, all in one ``apply``: column j packs the images of e_j
    under every operator, operator k at bits k*dim to (k+1)*dim - 1 (the
    reference for ``closure._packed_columns``)."""
    from skewsimple.closure import _pack_rows

    eye = np.eye(stack.dim, dtype=np.int64)
    return _pack_rows(stack.apply(eye).reshape(stack.dim, -1))


def naive_generator_commutators(ctx) -> np.ndarray:
    """L_x - R_x for each ring generator x of ``naive_ideal_operators``,
    stacked into one (generators * dim) x dim matrix over Z/char: r is
    central exactly when it sends vec(r) to zero (the dense reference for
    ``skew.is_central`` and ``SkewContext.center_basis``)."""
    ops = naive_ideal_operators(ctx)
    return np.concatenate([ops[k] - ops[k + 1] for k in range(0, len(ops), 2)]) % ctx.char


def naive_center_basis(ctx):
    """The centre as the kernel of the dense commutators with the u_g, g in
    ``group.generators``, on the centralizer of A (the reference for
    ``SkewContext.center_basis``)."""
    from skewsimple.closure import kernel_basis

    rows = ctx.centralizer_rows
    commutators = naive_generator_commutators(ctx)[ctx.ring.dim * ctx.dim:]
    images = (np.stack(rows) @ commutators.T) % ctx.char
    return kernel_basis(ctx.char, rows, images)


def naive_gauss_solve(p: int, A, b):
    """One solution x of A x = b over F_p (free variables zero), or None:
    Gauss-Jordan clearing each pivot column from the other rows one row at a
    time (the reference for ``closure.solve``)."""
    A = np.asarray(A, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    m, n = A.shape
    aug = np.concatenate([A, b.reshape(-1, 1)], axis=1)
    pivots = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if aug[r, col]), None)
        if pivot is None:
            continue
        aug[[row, pivot]] = aug[[pivot, row]]
        aug[row] = (aug[row] * pow(int(aug[row, col]), -1, p)) % p
        for r in range(m):
            if r != row and aug[r, col]:
                aug[r] = (aug[r] - aug[r, col] * aug[row]) % p
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    if any(aug[r, n] and not aug[r, :n].any() for r in range(m)):
        return None
    x = np.zeros(n, dtype=np.int64)
    for r, c in pivots:
        x[c] = aug[r, n]
    return x if not ((A @ x - b) % p).any() else None


def naive_orbit_transforms(ctx) -> np.ndarray:
    """Every transform r -> c u_g r u_h (c a unit of Z/char), one product per
    g, h and c of the dense multiplication matrices of the unit monomials,
    stacked in that order (the reference for ``skew._orbit_images``: the
    images of vec(r) are these transforms times vec(r))."""
    from skewsimple.skew import left_multiplication, right_multiplication

    n = ctx.char
    monomials = [ctx.vec_of(ctx.unit_monomial(g)) for g in range(ctx.group.order)]
    lefts = [left_multiplication(ctx, vec) for vec in monomials]
    rights = [right_multiplication(ctx, vec) for vec in monomials]
    units = [c for c in range(1, n) if gcd(c, n) == 1]
    return np.concatenate([(c * (lg @ rh)) % n for lg in lefts for rh in rights for c in units])


def naive_dense_field_obstruction(n: int, rows, one: np.ndarray, left_mul) -> np.ndarray | None:
    """The field test of ``closure.field_obstruction`` with x -> z x given as
    a dense matrix ``left_mul(z)`` for one z at a time: z^p by
    square-and-multiply on each basis row alone, and the minimal
    polynomial's powers one matrix product each (the reference for the
    batched products)."""
    from math import isqrt

    from skewsimple.closure import HowellBasis, _least_root, kernel_rows, solve

    def power(z, e):
        by_z = left_mul(z)
        out = z
        for k, bit in enumerate(bin(e)[3:]):
            out = ((by_z if k == 0 else left_mul(out)) @ out) % n
            if bit == "1":
                out = (by_z @ out) % n
        return out

    def minimal_polynomial(z):
        by_z = left_mul(z)
        span = HowellBasis(n, len(one))
        span.insert(one)
        powers = [one]
        while True:
            nxt = (by_z @ powers[-1]) % n
            if not span.insert(nxt):
                return [int(c) for c in solve(n, np.stack(powers, axis=1), nxt)]
            powers.append(nxt)

    p = next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)
    if p != n:
        return (p * one) % n
    if len(rows) == 1:
        return None
    images = [power(z, p) for z in rows]
    nilpotent = kernel_rows(p, rows, images)
    if nilpotent:
        return nilpotent[0]
    fixed = kernel_rows(p, rows, [(f - z) % p for f, z in zip(images, rows)])
    if len(fixed) == 1:
        return None
    scalars = HowellBasis(p, len(one))
    scalars.insert(one)
    z = next(f for f in fixed if not scalars.contains(f))
    c = _least_root(p, minimal_polynomial(z))
    return (z - c * one) % p


def naive_certificate_draws(ctx) -> list[np.ndarray]:
    """The certificate's seeded theta = sum_k L_{a_k} R_{b_k}, one single-vector
    multiplication matrix and one int64 product per term (the reference for
    ``skew.certificate_draws``)."""
    from skewsimple.skew import (CERTIFICATE_DRAWS, CERTIFICATE_SEED, CERTIFICATE_TERMS,
                                 left_multiplication, right_multiplication)
    p, dim = ctx.char, ctx.dim
    rng = random.Random(CERTIFICATE_SEED)
    draws = []
    for _ in range(CERTIFICATE_DRAWS):
        theta = np.zeros((dim, dim), dtype=np.int64)
        for _ in range(CERTIFICATE_TERMS):
            a = [rng.randrange(p) for _ in range(dim)]
            b = [rng.randrange(p) for _ in range(dim)]
            theta += (left_multiplication(ctx, a) @ right_multiplication(ctx, b)) % p
        draws.append(theta % p)
    return draws


def naive_group_axioms(mul) -> str | None:
    """The first failing group law of a square table over 0..n-1 with identity
    0, as ``GroupTable`` words it, checked entry by entry in loop order (the
    reference for ``GroupTable._verify_axioms``); None when it is a group."""
    n = len(mul)
    for i, row in enumerate(mul):
        if len(row) != n:
            return f"mul table row {i} has length {len(row)}, expected {n}"
        for x in row:
            if not 0 <= x < n:
                return f"mul table entry {x} out of range 0..{n - 1}"
    for g in range(n):
        if mul[0][g] != g or mul[g][0] != g:
            return "index 0 is not a two-sided identity"
    for a in range(n):
        for b in range(n):
            ab = mul[a][b]
            for c in range(n):
                if mul[ab][c] != mul[a][mul[b][c]]:
                    return f"multiplication not associative at ({a},{b},{c})"
    for g in range(n):
        if not any(mul[g][h] == 0 for h in range(n)):
            return f"element {g} has no inverse"
    return None


def naive_inverses(mul) -> tuple[int, ...]:
    """Per g, the least h with g h = h g = 0 (0 when there is none)."""
    inv = [0] * len(mul)
    for g in range(len(mul)):
        for h in range(len(mul)):
            if mul[g][h] == 0 and mul[h][g] == 0:
                inv[g] = h
                break
    return tuple(inv)


def naive_permutation_matrix(auto) -> np.ndarray:
    """The matrix of a coordinate permutation, column j the coordinates of
    its image of the j-th additive generator."""
    ring = auto.ring
    cols = [ring.to_vec(auto.apply(b)) for b in ring.additive_generators()]
    return np.array(cols, dtype=np.int64).T % ring.char


# the additive structure and canonical order, written out family by family: a
# residue is its own rank, and a matrix's entries or a function's point codes
# are the base-p or base-q digits of its rank, the first most significant

def naive_zero(ring):
    kind = ring.descriptor[0]
    if kind == "modular":
        return 0
    return (0,) * (ring.k * ring.k if kind == "matrix" else len(ring.points))


def naive_add(ring, a, b):
    kind = ring.descriptor[0]
    if kind == "modular":
        return (a + b) % ring.n
    if kind == "matrix":
        return tuple((x + y) % ring.p for x, y in zip(a, b))
    return tuple(ring.gf.add(x, y) for x, y in zip(a, b))


def naive_neg(ring, a):
    kind = ring.descriptor[0]
    if kind == "modular":
        return (-a) % ring.n
    if kind == "matrix":
        return tuple((-x) % ring.p for x in a)
    return tuple(ring.gf.neg(x) for x in a)


def naive_rank(ring, a) -> int:
    if ring.descriptor[0] == "modular":
        return a
    base = ring.p if ring.descriptor[0] == "matrix" else ring.q
    value = 0
    for x in a:
        value = value * base + x
    return value


def naive_unrank(ring, i: int):
    kind = ring.descriptor[0]
    if kind == "modular":
        return i
    base, count = (ring.p, ring.k * ring.k) if kind == "matrix" else (ring.q, len(ring.points))
    out = []
    for _ in range(count):
        out.append(i % base)
        i //= base
    return tuple(reversed(out))


def naive_skew_rank(ctx, r) -> int:
    """Mixed radix over the slots' coefficient ranks, identity slot first."""
    ring = ctx.ring
    value = 0
    for g in range(ctx.group.order):
        value = value * ring.size + naive_rank(ring, r.coeffs.get(g, naive_zero(ring)))
    return value


def naive_skew_unrank(ctx, i: int):
    ring = ctx.ring
    coeffs = {}
    for g in range(ctx.group.order - 1, -1, -1):
        i, digit = divmod(i, ring.size)
        if digit:
            coeffs[g] = naive_unrank(ring, digit)
    return ctx.element(coeffs)


def naive_find_support_slice(ctx, ideal, allowed_support):
    """The first element of the ideal with support inside the allowed set
    and identity coefficient 1, or None: one ``closure.solve`` of c.B = t
    over every RREF row of the ideal, t being vec(1) on the identity block
    and zero on each block outside the allowed set (the reference for
    ``skew._find_support_slice``)."""
    from skewsimple.closure import solve

    d = ctx.ring.dim
    rows = ideal.basis.rows
    if not rows:
        return None
    B = np.stack(rows)
    cols, target = [], []
    one_vec = ctx.ring.to_vec(ctx.ring.one)
    for g in range(ctx.group.order):
        block = range(g * d, (g + 1) * d)
        if g == 0:
            cols.extend(block)
            target.extend(one_vec)
        elif g not in allowed_support:
            cols.extend(block)
            target.extend([0] * d)
    sol = solve(ctx.char, B[:, cols].T % ctx.char, np.array(target, dtype=np.int64))
    if sol is None:
        return None
    return ctx.element_of_vec((sol @ B) % ctx.char)
