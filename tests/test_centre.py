"""The centre work on bases against the element-by-element references.

On the dynamics catalogue, sampled instances and residue group rings in
composite characteristic, the Frobenius field test must give the verdict of
the pairwise loop in ``naive.py``, with an obstruction that is nonzero,
central and has no inverse in the enumerated centre; the centre laws, the
containment check and the smallest-member selection of ``central_witness``
must answer exactly as the loops in ``naive.py``; the least members read off
the Howell rows must be the first nonzero ones of the sorted enumeration;
the centralizer's slot kernels and the centre's basis, with everything read
off them, must equal the payload-by-payload loops there, and the centre's
basis the kernel of the dense commutators there; ``is_central`` must answer
as the commutation loop and the dense commutators there, and the ideal of a
central element be everything exactly when the centre-basis test there
finds a unit and, on small centres, a search for an inverse among the
centre's elements finds one (nonabelian groups with a centre that is not a
field included); and the support slice of
``support_reduce``, read off the ideal's rows, must be the element one full
solve there finds.
"""

import random
from unittest.mock import patch

import numpy as np
import pytest

from skewsimple import GroupTable, ModularRing, skew
from skewsimple.actions import is_G_simple, kernel, trivial_action
from skewsimple.closure import HowellBasis
from skewsimple.criteria import (InstanceSampler, _augmentation_violation,
                                 center_containment_check, center_structure_check,
                                 centralizer_kernel_check, field_obstruction)
from skewsimple.dynamics import TransformationGroup, catalogue
from skewsimple.skew import (SkewContext, SkewElement, _find_support_slice, augmentation,
                             central_witness, centralizer_components,
                             commuting_witness_outside_A, is_central,
                             is_max_commutative_A, skew_center, skew_ideal_closure,
                             smallest_member, support_reduce)
from skewsimple.suite import SWEEPS, _derive_seed

from conftest import stack_reference_contexts, swap_context
from naive import (naive_augmentation_violation, naive_center_basis, naive_center_classes,
                   naive_center_containment, naive_center_laws, naive_centralizer_components,
                   naive_field_obstruction, naive_find_support_slice, naive_generator_commutators,
                   naive_has_inverse, naive_is_center_unit, naive_is_central,
                   naive_smallest_member)

# ideals up to this size are enumerated member by member for the reference
_NAIVE_IDEAL_LIMIT = 1024


def _cases():
    cases = [(f"catalogue-{tg.name}", tg.context) for tg in catalogue()]
    cases += [(f"sampler-{inst.name}", inst.ctx)
              for inst in InstanceSampler(0, max_size=1024).draw_many(60)]
    groups = {"Z2": GroupTable.cyclic_product([2]), "Z3": GroupTable.cyclic_product([3]),
              "Z2xZ2": GroupTable.cyclic_product([2, 2]), "S3": GroupTable.symmetric(3)}
    for n in range(4, 13):
        for tag, group in groups.items():
            ring = ModularRing(n)
            cases.append((f"Z{n}-{tag}", SkewContext(ring, group, trivial_action(group, ring))))
    return cases


CASES = _cases()
# skew rings small enough to multiply every pair of elements
SMALL_CASES = [(name, ctx) for name, ctx in CASES if ctx.size <= 64]


@pytest.mark.parametrize("ctx", [ctx for _, ctx in CASES], ids=[name for name, _ in CASES])
def test_centre_work_matches_naive(ctx):
    centre = skew_center(ctx)
    bad = ctx.center_obstruction
    assert field_obstruction(ctx).is_field == (bad is None)
    assert (bad is None) == (naive_field_obstruction(centre, zero=ctx.zero, one=ctx.one) is None)
    if bad is not None:
        assert not bad.is_zero() and is_central(bad)
        assert not naive_has_inverse(bad, centre, one=ctx.one)
    assert center_containment_check(ctx).as_json() == naive_center_containment(ctx, centre)
    report = center_structure_check(ctx)
    assert (report.conclusions["center_coefficient_laws"],
            report.verdicts["coefficients_in_fixed_ring"].value) == naive_center_laws(ctx, centre)
    if ctx.size > ctx.caps.enumeration:
        return
    ideal = skew_ideal_closure(ctx, [ctx.element_of_rank(1 + (ctx.size - 1) // 2)])
    if ideal.size > _NAIVE_IDEAL_LIMIT:
        return
    best = naive_smallest_member(ctx, ideal)
    assert smallest_member(ideal) == best
    if ctx.group.is_abelian and is_G_simple(ctx.action).value:
        assert central_witness(ctx, ideal) == support_reduce(ctx, best)


@pytest.mark.parametrize("ctx", [ctx for _, ctx in CASES], ids=[name for name, _ in CASES])
def test_centralizer_and_centre_bases_match_naive(ctx):
    ring, group = ctx.ring, ctx.group
    comps = naive_centralizer_components(ctx)
    assert centralizer_components(ctx) == comps
    assert [slot.size for slot in ctx.centralizer_slots] == [len(c) for c in comps]
    classes = naive_center_classes(ctx)
    spanned = HowellBasis(ctx.char, ctx.dim)
    for choices in classes:
        for coeffs in choices:
            spanned.insert(np.array(ctx.vec_of(SkewElement(ctx, coeffs)), dtype=np.int64))
    assert ctx.center_basis.key() == spanned.key()
    class_of = {g: c for c, cls in enumerate(group.conjugacy_classes) for g in cls}
    for row in ctx.center_basis.rows:
        assert len({class_of[g] for g in ctx.element_of_vec(row).support}) == 1
    # the centre is the sums of one choice per class
    sums = [ctx.zero]
    for choices in classes:
        sums = [r + SkewElement(ctx, coeffs) for r in sums for coeffs in choices]
    assert skew_center(ctx) == sorted(sums, key=ctx.rank_of)
    if ring.is_commutative:
        assert is_max_commutative_A(ctx) == all(len(c) == 1 for c in comps[1:])
        first = next((ctx.monomial(a, g) for g in range(1, group.order) for a in comps[g]
                      if a != ring.zero), None)
        assert commuting_witness_outside_A(ctx) == first
    matches = centralizer_kernel_check(ctx).conclusions["centralizer_matches_kernel"]
    if matches is not None:
        members = kernel(ctx.action).members
        assert matches == all(len(comps[g]) == (ring.size if g in members else 1)
                              for g in range(group.order))


# spans up to this size are enumerated for the least-member reference
_SORTED_LIMIT = 1 << 14


@pytest.mark.parametrize("ctx", [ctx for _, ctx in CASES], ids=[name for name, _ in CASES])
def test_least_members_match_the_sorted_enumeration(ctx):
    # the centre and its part on each conjugacy class other than {e}, in R's
    # rank order, and each nonzero centralizer slot C_g, in A's rank order
    d = ctx.ring.dim
    class_of = {g: c for c, cls in enumerate(ctx.group.conjugacy_classes) for g in cls}
    parts = {}
    for row, piv in zip(ctx.center_basis.rows, ctx.center_basis.pivots):
        if piv >= d:
            parts.setdefault(class_of[piv // d], HowellBasis(ctx.char, ctx.dim)).insert(row)
    spans = [(part, ctx.rank_columns) for part in [ctx.center_basis, *parts.values()]]
    spans += [(slot, ctx.ring.rank_columns) for slot in ctx.centralizer_slots if slot.rank]
    for span, columns in spans:
        if span.size <= _SORTED_LIMIT:
            expected = span.sorted_members(columns, _SORTED_LIMIT, "test")[1]
            assert span.least_member(columns).tolist() == expected.tolist()


@pytest.mark.parametrize("ctx", [ctx for _, ctx in SMALL_CASES],
                         ids=[name for name, _ in SMALL_CASES])
def test_augmentation_verdict_matches_all_pairs(ctx):
    naive = naive_augmentation_violation(ctx)
    found = _augmentation_violation(ctx)
    verdict = center_structure_check(ctx).verdicts["augmentation_multiplicative"]
    assert (found is None) == (naive is None) == verdict.value
    if found is not None:
        r, s = found
        assert augmentation(r * s) != augmentation(r) * augmentation(s)
        assert verdict.witness == {"pair": [r.serialize(), s.serialize()]}


def test_center_laws_detect_injected_non_central_choice():
    ctx = swap_context()
    assert center_structure_check(ctx).conclusions["center_coefficient_laws"] is True
    # (1,0) u_e commutes with the coefficients but not with the swap
    ctx.center_basis.insert(np.array(ctx.vec_of(ctx.monomial((1, 0), 0)), dtype=np.int64))
    report = center_structure_check(ctx)
    assert report.conclusions["center_coefficient_laws"] is False
    assert report.conclusions["abelian_coefficients_fixed"] is False


def test_is_central_matches_the_product_loop():
    # the stack's test against the commutation loop of naive.py, on the
    # centre's basis rows, the ring generators and seeded random elements of
    # every context with |R| <= 4096
    rng = random.Random(12)
    contexts = [T.context for T in catalogue()]
    contexts += [inst.ctx for inst in InstanceSampler(0, 4096).draw_many(200)]
    checked = central = 0
    for ctx in contexts:
        if ctx.size > 4096:
            continue
        elements = [ctx.element_of_vec(row) for row in ctx.center_basis.rows]
        elements += [ctx.monomial(b, 0) for b in ctx.ring.additive_generators()]
        elements += [ctx.unit_monomial(g) for g in ctx.group.generators]
        elements += [ctx.element_of_rank(rng.randrange(ctx.size)) for _ in range(8)]
        for r in elements:
            expected = naive_is_central(r)
            assert is_central(r) is expected, (ctx, r)
            checked += 1
            central += expected
    assert 0 < central < checked


def test_centre_and_centrality_match_the_dense_commutators():
    # the centre's basis, and is_central on its rows, the ring generators and
    # seeded coordinate vectors, against the kernel and the products of the
    # dense commutators L_x - R_x of the ring generators (naive.py)
    rng = np.random.default_rng(31)
    checked = central = 0
    for ctx in stack_reference_contexts():
        n = ctx.char
        centre, reference = ctx.center_basis, naive_center_basis(ctx)
        assert (centre.key(), centre.pivots, centre.divs) == (
            reference.key(), reference.pivots, reference.divs), ctx
        commutators = naive_generator_commutators(ctx)
        vecs = list(centre.matrix()) + list(rng.integers(0, n, size=(6, ctx.dim)))
        vecs += [ctx.vec_of(ctx.monomial(b, 0)) for b in ctx.ring.additive_generators()]
        vecs += [ctx.vec_of(ctx.unit_monomial(g)) for g in ctx.group.generators]
        for vec in vecs:
            r = ctx.element_of_vec(vec)
            expected = not ((commutators @ np.asarray(ctx.vec_of(r))) % n).any()
            assert is_central(r) is expected, (ctx, r)
            checked += 1
            central += expected
    assert 0 < central < checked


def _obstructed_nonabelian_cases() -> list:
    """Nonabelian groups acting on F_q^X through a proper quotient, so that
    the centre is not a field and sigma moves the coefficients: S3 and S4
    by their sign on two points, S3 beside a fixed point, and S4 on the
    three ways to pair up four points."""
    s3, s4 = GroupTable.symmetric(3), GroupTable.symmetric(4)

    def by_sign(group):
        return tuple((0, 1) if _is_even(p) else (1, 0) for p in group.permutations)

    pairings = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]

    def on_pairings(p):
        moved = [tuple(sorted(tuple(sorted(p[x] for x in pair)) for pair in pairing))
                 for pairing in pairings]
        return tuple(pairings.index(m) for m in moved)

    return [TransformationGroup(*spec).context for spec in (
        (2, s3, by_sign(s3), 2, "sign_S3"), (2, s3, by_sign(s3), 3, "sign_S3_q3"),
        (2, s4, by_sign(s4), 2, "sign_S4"),
        (4, s3, tuple((*p, 3) for p in s3.permutations), 3, "natural_S3_and_fixed_q3"),
        (3, s4, tuple(on_pairings(p) for p in s4.permutations), 2, "S4_on_pairings"))]


def _is_even(p) -> bool:
    return sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p))) % 2 == 0


def test_a_central_ideal_is_full_exactly_at_the_centre_units():
    # the unit test report.py runs on a central r (its ideal RrR = rR is
    # everything) against the reference that maps the centre's basis
    # (naive.py), on every central element of the small centres and seeded
    # combinations of the basis rows of the larger ones, non-units included;
    # on the small centres also against an inverse looked for among the
    # centre's elements, which reads no multiplication matrix
    rng = random.Random(23)
    checked = units = nonzero_nonunits = inverse_checked = 0
    obstructed = _obstructed_nonabelian_cases()
    for ctx in obstructed:
        assert not ctx.group.is_abelian and ctx.center_obstruction is not None, ctx
    for ctx in [ctx for _, ctx in CASES] + obstructed:
        centre = ctx.center_basis
        small = centre.size <= 64
        if small:
            elements = skew_center(ctx)
            members = list(elements)
        else:
            rows = centre.rows
            elements = [ctx.element_of_vec(sum(rng.randrange(ctx.char) * row for row in rows)
                                           % ctx.char) for _ in range(32)]
        if ctx.center_obstruction is not None:
            elements.append(ctx.center_obstruction)
        for r in elements:
            expected = naive_is_center_unit(r)
            assert skew_ideal_closure(ctx, [r]).is_full is expected, (ctx, r)
            if small:
                assert naive_has_inverse(r, members, one=ctx.one) is expected, (ctx, r)
                inverse_checked += 1
            checked += 1
            units += expected
            nonzero_nonunits += not expected and not r.is_zero()
    assert units and nonzero_nonunits and checked > units + nonzero_nonunits
    assert inverse_checked > checked // 2


def _constructive_contexts(seed: int, count: int = 20) -> list:
    """The contexts of the suite's sweeps at this seed (``count`` draws per
    sweep) under the constructive procedures' hypotheses, within the cap."""
    contexts = []
    for name, (predicate, _) in SWEEPS.items():
        sampler = InstanceSampler(_derive_seed(seed, name), max_size=4096)
        for _ in range(count):
            ctx = sampler.draw(predicate).ctx
            if (ctx.group.is_abelian and ctx.g_simplicity.value
                    and ctx.size <= ctx.caps.enumeration):
                contexts.append(ctx)
    return contexts


def test_support_slice_matches_the_full_solve():
    # the slice read off the RREF rows against one solve over every row
    # (naive.py), on the ideals the suite's constructive probe closes and on
    # those of their generators, for the support the reduction asks for and
    # for seeded random supports; both ways of finishing must occur: a zero
    # residual, and one that needs the solve over the remaining rows
    rng = random.Random(7)
    calls = read_off = solved = 0
    with patch.object(skew, "solve", wraps=skew.solve) as counted:
        for seed in (0, 5):
            for ctx in _constructive_contexts(seed):
                order = ctx.group.order
                ideals = [skew_ideal_closure(ctx, [ctx.element_of_rank(1 + (ctx.size - 1) // 2)])]
                if ctx.simplicity.witness_ideal is not None:
                    ideals.append(ctx.simplicity.witness_ideal)
                for ideal in ideals:
                    supports = [frozenset(g for g in range(order) if rng.random() < 0.5)
                                for _ in range(4)]
                    for gen in ideal.generators:
                        h_inv = ctx.group.inv_table[min(gen.support)]
                        supports.append(frozenset(ctx.group.mul_table[g][h_inv]
                                                  for g in gen.support))
                    for allowed in supports:
                        before = counted.call_count
                        found = _find_support_slice(ctx, ideal, allowed)
                        assert found == naive_find_support_slice(ctx, ideal, allowed), \
                            (ctx, ideal.generators, allowed)
                        if ideal.basis.rank:
                            calls += 1
                            solved += counted.call_count - before == 1
                            read_off += counted.call_count == before
    assert calls == read_off + solved
    assert read_off and solved
