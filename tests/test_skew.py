import random
import time
from dataclasses import replace

import numpy as np
import pytest

from skewsimple import (CapacityError, Caps, DomainError, FunctionRing, GroupTable,
                        MatrixRing, ModularRing, PreconditionError, skew)
from skewsimple.actions import ActionMap, RingAutomorphism, is_G_simple, trivial_action
from skewsimple.closure import HowellBasis, kernel_rows
from skewsimple.criteria import InstanceSampler
from skewsimple.dynamics import TransformationGroup
from skewsimple.skew import (SkewContext, SkewIdeal, augmentation, central_witness,
                             centralizer_components, centralizer_of_A, coeff_at_e,
                             commuting_witness_outside_A, is_central,
                             is_max_commutative_A, is_simple, left_multiplication,
                             right_multiplication, skew_center, skew_ideal_closure,
                             support, support_reduce)

from conftest import (conj_f2_context, conj_f3_context, natural_s3_context,
                      rotation_z3_context, swap_context, trivial_f2_z2_context,
                      two_two_cycles_context)
from naive import naive_certificate_draws, naive_orbit_transforms, naive_skew_span


def test_unit_monomials_invert_each_other():
    ctx = rotation_z3_context()
    for g in ctx.group.elements():
        ginv = ctx.group.inv(g)
        assert ctx.unit_monomial(g) * ctx.unit_monomial(ginv) == ctx.one
        assert ctx.unit_monomial(ginv) * ctx.unit_monomial(g) == ctx.one


def test_trivial_group_multiplication_is_ring_multiplication():
    ring = MatrixRing(2, 2)
    grp = GroupTable.cyclic_product([1])
    ctx = SkewContext(ring, grp, trivial_action(grp, ring))
    for i in range(ring.size):
        for j in range(0, ring.size, 3):
            a, b = ring.unrank(i), ring.unrank(j)
            prod = ctx.monomial(a, 0) * ctx.monomial(b, 0)
            assert prod == ctx.monomial(ring.mul(a, b), 0)


def test_swap_context_nilpotent_product(swap_ctx):
    r = swap_ctx.monomial((1, 0), 1)
    assert (r * r).is_zero()


def test_context_mismatch_rejected(swap_ctx):
    other = swap_context()
    with pytest.raises(DomainError):
        swap_ctx.one + other.one
    with pytest.raises(DomainError):
        swap_ctx.one * other.one


def test_conjugation_implemented_by_unit_monomials(conj_f3_ctx):
    ctx = conj_f3_ctx
    for g in ctx.group.elements():
        u = ctx.unit_monomial(g)
        uinv = ctx.unit_monomial(ctx.group.inv(g))
        for a in ctx.ring.payloads():
            lhs = u * ctx.monomial(a, 0) * uinv
            assert lhs == ctx.monomial(ctx.action.apply(g, a), 0)


def test_augmentation_and_identity_coefficient(swap_ctx):
    ctx = trivial_f2_z2_context()
    r = ctx.one - ctx.unit_monomial(1)
    assert augmentation(r).is_zero()  # kernel member difference dies under eps
    s = swap_ctx.one + swap_ctx.monomial((1, 1), 1)
    assert coeff_at_e(s).payload == (1, 1)
    assert support(s) == {0, 1}


def test_support_example_modular():
    ring = ModularRing(6)
    grp = GroupTable.cyclic_product([2])
    ctx = SkewContext(ring, grp, trivial_action(grp, ring))
    r = ctx.monomial(3, 0) + ctx.monomial(2, 1)
    assert support(r) == {0, 1}
    assert augmentation(r).payload == 5


def test_augmentation_additive_always(conj_f3_ctx):
    rng = random.Random(5)
    ctx = conj_f3_ctx
    for _ in range(200):
        r = ctx.element_of_rank(rng.randrange(ctx.size))
        s = ctx.element_of_rank(rng.randrange(ctx.size))
        assert augmentation(r + s) == augmentation(r) + augmentation(s)


def test_augmentation_multiplicative_iff_kernel_everything():
    trivial = trivial_f2_z2_context()
    rng = random.Random(6)
    for _ in range(100):
        r = trivial.element_of_rank(rng.randrange(trivial.size))
        s = trivial.element_of_rank(rng.randrange(trivial.size))
        assert augmentation(r * s) == augmentation(r) * augmentation(s)
    swap = swap_context()
    found = any(
        augmentation(r * s) != augmentation(r) * augmentation(s)
        for r in swap.elements() for s in swap.elements())
    assert found


def test_augmentation_kills_kernel_difference_ideal():
    ctx = trivial_f2_z2_context()
    ideal = skew_ideal_closure(ctx, [ctx.one - ctx.unit_monomial(1)])
    assert not ideal.is_full
    for r in ideal.elements():
        assert augmentation(r).is_zero()


def test_associativity_exhaustive_tiny(swap_ctx):
    elems = list(swap_ctx.elements())
    for r in elems:
        for s in elems:
            for t in elems:
                assert (r * s) * t == r * (s * t)


@pytest.mark.parametrize("make", [conj_f3_context, natural_s3_context, rotation_z3_context])
def test_associativity_random_triples(make):
    ctx = make()
    rng = random.Random(13)
    coeff_count = min(ctx.size, 1 << 30)
    for _ in range(10_000):
        r = ctx.element_of_rank(rng.randrange(coeff_count))
        s = ctx.element_of_rank(rng.randrange(coeff_count))
        t = ctx.element_of_rank(rng.randrange(coeff_count))
        assert (r * s) * t == r * (s * t)


def test_distributivity_random(conj_f2_ctx):
    rng = random.Random(14)
    ctx = conj_f2_ctx
    for _ in range(2000):
        r, s, t = (ctx.element_of_rank(rng.randrange(ctx.size)) for _ in range(3))
        assert r * (s + t) == r * s + r * t
        assert (r + s) * t == r * t + s * t


# centralizer and centre ------------------------------------------------------

def test_centralizer_trivial_action_is_everything():
    ring = ModularRing(4)
    grp = GroupTable.cyclic_product([2])
    ctx = SkewContext(ring, grp, trivial_action(grp, ring))
    assert len(centralizer_of_A(ctx)) == ctx.size


def test_centralizer_swap_is_exactly_A(swap_ctx):
    cent = centralizer_of_A(swap_ctx)
    assert len(cent) == swap_ctx.ring.size
    assert all(r.support <= {0} for r in cent)
    assert is_max_commutative_A(swap_ctx)


def test_centralizer_s3_contains_fixed_point_indicator(s3_ctx):
    witness = commuting_witness_outside_A(s3_ctx)
    assert witness is not None
    g = next(iter(witness.support))
    perm = s3_ctx.group.permutations[g]
    fixed_points = [x for x in range(3) if perm[x] == x]
    payload = witness.coeffs[g]
    assert all(payload[x] == 0 for x in range(3) if x not in fixed_points)
    assert not is_max_commutative_A(s3_ctx)
    # and it does commute with the whole coefficient ring
    for a in s3_ctx.ring.payloads():
        mono = s3_ctx.monomial(a, 0)
        assert mono * witness == witness * mono


def test_max_commutativity_requires_commutative_ring(conj_f3_ctx):
    with pytest.raises(DomainError):
        is_max_commutative_A(conj_f3_ctx)


def test_trivial_action_never_max_commutative():
    ctx = trivial_f2_z2_context()
    assert not is_max_commutative_A(ctx)


def test_center_of_trivial_group_is_ring_center():
    ring = MatrixRing(2, 2)
    grp = GroupTable.cyclic_product([1])
    ctx = SkewContext(ring, grp, trivial_action(grp, ring))
    centre = skew_center(ctx)
    assert {coeff_at_e(z).payload for z in centre} == {(0, 0, 0, 0), (1, 0, 0, 1)}


def test_center_structure_conj_f3(conj_f3_ctx):
    centre = skew_center(conj_f3_ctx)
    assert len(centre) == 9
    M = (0, 1, 2, 0)
    ring = conj_f3_ctx.ring
    scalars = [(c, 0, 0, c) for c in range(3)]
    expected = set()
    for c0 in range(3):
        for c1 in range(3):
            coeffs = {}
            if c0:
                coeffs[0] = scalars[c0]
            if c1:
                coeffs[1] = ring.mul(scalars[c1], M)
            expected.add(conj_f3_ctx.element(coeffs))
    assert set(centre) == expected


def test_center_swap_is_prime_field(swap_ctx):
    centre = skew_center(swap_ctx)
    assert set(centre) == {swap_ctx.zero, swap_ctx.one}


def test_center_brute_force_agreement():
    ctx = rotation_z3_context()
    centre = set(skew_center(ctx))
    brute = {r for r in ctx.elements()
             if all(r * s == s * r for s in ctx.elements())}
    assert centre == brute


def test_center_coefficient_laws(conj_f3_ctx):
    ctx = conj_f3_ctx
    ring, action = ctx.ring, ctx.action
    fixed = {a for a in ring.payloads()
             if all(auto.apply(a) == a for auto in action.autos)}
    for z in skew_center(ctx):
        for g, a in z.coeffs.items():
            assert a in fixed  # abelian group: coefficients are action-fixed
            for b in ring.additive_generators():
                assert ring.mul(b, a) == ring.mul(a, action.apply(g, b))
            for h in ctx.group.elements():
                tgt = ctx.group.mul(ctx.group.mul(h, g), ctx.group.inv(h))
                assert z.coeffs.get(tgt, ring.zero) == action.apply(h, a)


def test_centralizer_equals_kernel_support_under_hypotheses():
    # abelian group, commutative coefficients, action-simple: centralizer is
    # exactly the subring supported on the kernel
    ring = FunctionRing(2, 2)
    z4 = GroupTable.cyclic_product([4])
    through_quotient = ActionMap(z4, ring, [
        RingAutomorphism.coordinate_permutation(ring, tuple((x + g) % 2 for x in range(2)))
        for g in range(4)])
    ctx = SkewContext(ring, z4, through_quotient)
    comps = centralizer_components(ctx)
    kernel_members = {0, 2}
    for g in z4.elements():
        if g in kernel_members:
            assert len(comps[g]) == ring.size
        else:
            assert comps[g] == [ring.zero]


# ideals and the oracle -----------------------------------------------------------

def test_trivial_group_simple_iff_ring_simple():
    ring = MatrixRing(2, 2)
    grp = GroupTable.cyclic_product([1])
    ctx = SkewContext(ring, grp, trivial_action(grp, ring))
    assert is_simple(ctx).value is True


def test_group_ring_augmentation_witness():
    ctx = trivial_f2_z2_context()
    verdict = is_simple(ctx)
    assert verdict.value is False
    assert verdict.witness == ctx.one + ctx.unit_monomial(1)
    assert not verdict.witness_ideal.is_full


def test_swap_is_simple(swap_ctx):
    assert is_simple(swap_ctx).value is True


def test_two_two_cycles_not_simple():
    ctx = two_two_cycles_context()
    verdict = is_simple(ctx)
    assert verdict.value is False
    ideal = verdict.witness_ideal
    assert ideal.contains(verdict.witness)
    assert ideal.validate_closed()


def test_validate_closed_rejects_a_non_ideal(swap_ctx):
    # A u_e is closed under sums and under multiplication by A u_e, but
    # u_g (1,0) = (0,1) u_g leaves it
    ctx = swap_ctx
    basis = HowellBasis(ctx.char, ctx.dim)
    for b in ctx.ring.additive_generators():
        basis.insert(np.array(ctx.vec_of(ctx.monomial(b, 0)), dtype=np.int64))
    assert not SkewIdeal(ctx, (), basis).validate_closed()
    assert skew_ideal_closure(ctx, [ctx.monomial((1, 0), 0)]).validate_closed()


def test_skew_ideal_closure_full_for_units(conj_f2_ctx):
    ideal = skew_ideal_closure(conj_f2_ctx, [conj_f2_ctx.unit_monomial(1)])
    assert ideal.is_full


def test_skew_ideal_closure_cross_engine(swap_ctx):
    # the engine against the naive set span on the same generators
    gen = swap_ctx.one + swap_ctx.monomial((1, 0), 1)
    ideal = skew_ideal_closure(swap_ctx, [gen])
    span = naive_skew_span(swap_ctx, [gen])
    assert {tuple(v) for v in ideal.iter_vectors()} == span


def test_composite_characteristic_oracle():
    ring = ModularRing(6)
    grp = GroupTable.cyclic_product([2])
    ctx = SkewContext(ring, grp, trivial_action(grp, ring))
    verdict = is_simple(ctx)
    assert verdict.value is False
    assert not verdict.witness_ideal.is_full
    assert verdict.witness_ideal.validate_closed()


def test_oracle_refuses_over_cap_without_flag():
    caps = replace(Caps.from_env(), enumeration=64)
    ctx = swap_context(caps)
    assert ctx.size <= 64  # still within: use a bigger context instead
    ctx2 = natural_s3_context(caps=caps)
    ctx2.witness_search = False
    with pytest.raises(CapacityError):
        is_simple(ctx2)
    ctx2.witness_search = True
    assert is_simple(ctx2).value is False


def test_witness_search_claims_simplicity_only_by_certificate(monkeypatch):
    # the regular rotation context is simple: above a tiny cap the
    # certificate proves it, and without the certificate the search comes
    # back undetermined rather than claim anything
    caps = Caps(enumeration=16, witness_candidates=50)
    verdict = is_simple(rotation_z3_context(caps=caps))
    assert (verdict.value, verdict.method) == (True, "certificate")
    assert verdict.witness is None
    monkeypatch.setattr(skew, "certify_simple", lambda ctx: False)
    verdict = is_simple(rotation_z3_context(caps=caps))
    assert verdict.value is None
    assert verdict.method == "witness_search"
    assert "undetermined" in verdict.note
    monkeypatch.undo()
    for ctx in (two_two_cycles_context(caps), conj_f2_context(caps),
                natural_s3_context(caps=caps)):
        assert ctx.size > caps.enumeration
        assert skew.certify_simple(ctx) is False
        assert is_simple(ctx).value is False


def test_certificate_draws_match_the_per_term_products(dynamics_catalogue):
    # float64 products on the catalogue and the sampler; int64 for Z/p with
    # dim (p-1)^2 above 2^53
    contexts = [T.context for T in dynamics_catalogue]
    contexts += [inst.ctx for inst in InstanceSampler(0, 4096).draw_many(100)]
    ring, grp = ModularRing(100000007), GroupTable.cyclic_product([2])
    contexts.append(SkewContext(ring, grp, trivial_action(grp, ring)))
    for ctx in contexts:
        draws = list(skew.certificate_draws(ctx))
        expected = naive_certificate_draws(ctx)
        assert len(draws) == len(expected)
        for theta, reference in zip(draws, expected):
            assert theta.dtype == np.int64
            assert np.array_equal(theta, reference), ctx


def test_commuting_candidates_are_built_as_the_search_reaches_them(monkeypatch):
    # natural S4 on F_2^4 is decided by the first candidate of C_g, g = 1;
    # the 22 other slots are never enumerated
    s4 = GroupTable.symmetric(4)
    slots = []
    enumerate_slot = skew._slot_payloads
    monkeypatch.setattr(skew, "_slot_payloads",
                        lambda ctx, g: slots.append(g) or enumerate_slot(ctx, g))
    ctx = TransformationGroup(4, s4, s4.permutations, 2, "natural_S4").context
    verdict = is_simple(ctx)
    assert (verdict.value, verdict.method) == (False, "witness_search")
    assert verdict.witness == ctx.monomial((0, 1, 0, 0), 0) - ctx.monomial((0, 1, 0, 0), 1)
    assert slots == [1]
    # a slot above the cap (C_1 has 4 members) skips the family before any
    # slot is enumerated; the centre's obstruction decides instead
    slots.clear()
    caps = Caps(enumeration=3)
    ctx = TransformationGroup(4, GroupTable.symmetric(4, caps), s4.permutations, 2,
                              "natural_S4", caps).context
    verdict = is_simple(ctx)
    assert (verdict.value, verdict.method) == (False, "witness_search")
    assert slots == []


@pytest.mark.parametrize("name", ["regular_Z4", "regular_Z2xZ2", "rotation_Z3_q3"])
def test_certificate_decides_in_cap_simple_actions(dynamics_catalogue, name):
    T = next(T for T in dynamics_catalogue if T.name == name)
    ctx = T.context
    assert ctx.size <= ctx.caps.enumeration
    verdict = is_simple(ctx)
    assert (verdict.value, verdict.method) == (True, "certificate")


def _natural_action(ring, grp):
    autos = [RingAutomorphism.coordinate_permutation(ring, grp.permutations[grp.inv(g)])
             for g in grp.elements()]
    return SkewContext(ring, grp, ActionMap(grp, ring, autos))


def _gf4_frobenius_table_context():
    # GF(4) as functions on one point, Z2 given as a table, Frobenius by table
    ring = FunctionRing(1, 4)
    grp = GroupTable([[0, 1], [1, 0]], tag="table")
    frobenius = [(ring.gf.mul(a[0], a[0]),) for a in ring.payloads()]
    autos = [RingAutomorphism.identity(ring), RingAutomorphism.from_table(ring, frobenius)]
    return SkewContext(ring, grp, ActionMap(grp, ring, autos))


def _gf4_swap_context():
    ring = FunctionRing(2, 4)
    grp = GroupTable.cyclic_product([2])
    autos = [RingAutomorphism.identity(ring), RingAutomorphism.coordinate_permutation(ring, [1, 0])]
    return SkewContext(ring, grp, ActionMap(grp, ring, autos))


def _identity_scaling_context(n, order):
    # scaling by a unit other than 1 moves 1, so only the identity scaling is valid
    ring = ModularRing(n)
    grp = GroupTable.cyclic_product([order])
    autos = [RingAutomorphism.unit_scaling(ring, 1) for _ in grp.elements()]
    return SkewContext(ring, grp, ActionMap(grp, ring, autos))


def _trivial_context(ring, grp):
    return SkewContext(ring, grp, trivial_action(grp, ring))


# every ring kind (GF(4) functions, matrices, composite Z/n), group kind
# (cyclic product, permutation, symmetric, table) and action kind (trivial,
# coordinate permutation, conjugation, unit scaling, table)
OPERATOR_CASES = {
    "gf4_functions_swap": _gf4_swap_context,
    "gf4_frobenius_table": _gf4_frobenius_table_context,
    "matrix_f3_conjugation": conj_f3_context,
    "matrix_f2_trivial_permutation_group": lambda: _trivial_context(
        MatrixRing(2, 2), GroupTable.from_permutations(3, [[1, 2, 0]])),
    "f3_functions_natural_s3": lambda: natural_s3_context(q=3),
    "f2_functions_permutation_z2xz2": lambda: _natural_action(
        FunctionRing(4, 2), GroupTable.from_permutations(4, [[1, 0, 3, 2], [2, 3, 0, 1]])),
    "z6_trivial_z2xz3": lambda: _trivial_context(ModularRing(6), GroupTable.cyclic_product([2, 3])),
    "z9_unit_scaling_z3": lambda: _identity_scaling_context(9, 3),
}


@pytest.mark.parametrize("make", list(OPERATOR_CASES.values()), ids=list(OPERATOR_CASES))
def test_right_multiplication_matches_products(make):
    ctx = make()
    n = ctx.char
    lefts, rights = ctx.unit_monomial_matrices
    rng = random.Random(3)
    for _ in range(10):
        r = ctx.element_of_vec([rng.randrange(n) for _ in range(ctx.dim)])
        x = ctx.element_of_vec([rng.randrange(n) for _ in range(ctx.dim)])
        vec = np.array(ctx.vec_of(x), dtype=np.int64)
        right = right_multiplication(ctx, ctx.vec_of(r))
        left = left_multiplication(ctx, ctx.vec_of(r))
        assert tuple((right @ vec) % n) == ctx.vec_of(x * r)
        assert tuple((left @ vec) % n) == ctx.vec_of(r * x)
        for g in ctx.group.elements():
            u = ctx.unit_monomial(g)
            assert tuple((lefts[g] @ vec) % n) == ctx.vec_of(u * x)
            assert tuple((rights[g] @ vec) % n) == ctx.vec_of(x * u)
    # one left and one right operator per ring generator: b_t u_e and u_g
    # for each group generator g
    generators = ctx.ring.dim + len(ctx.group.generators)
    assert len(ctx.ideal_operator_matrices) == 2 * generators


def test_dual_engine_keeps_annihilators_of_ideals(conj_f2_ctx):
    # the annihilator of a proper ideal U is stable under the transposed
    # operators, so its closure there is itself
    ctx = conj_f2_ctx
    ideal = is_simple(ctx).witness_ideal
    rows = np.stack(ideal.basis.rows)
    annihilator = kernel_rows(ctx.char, np.eye(ctx.dim, dtype=np.int64), rows.T)
    assert len(annihilator) == ctx.dim - ideal.basis.rank > 0
    closed = ctx.dual_engine.closure(annihilator)
    assert closed.rank == len(annihilator)


def test_witness_search_guards_each_candidate_family():
    # |A| = 2147483647 is above the cap: A is a field, so the fixed-centre
    # test finds it G-simple and the invariant-ideal family has no candidate,
    # and the commuting family is skipped; the kernel family still decides
    n = 2147483647
    ring = ModularRing(n)
    grp = GroupTable.cyclic_product([2])
    ctx = SkewContext(ring, grp, trivial_action(grp, ring))
    ctx.witness_search = True
    verdict = is_simple(ctx)
    assert (verdict.value, verdict.method) == (False, "witness_search")
    assert verdict.witness == ctx.one - ctx.unit_monomial(1)
    assert verdict.witness.serialize() == [["0", 1], ["1", n - 1]]
    assert verdict.witness_ideal.size == n


def test_moduli_whose_products_wrap_are_refused():
    grp = GroupTable.cyclic_product([2])
    fits = ModularRing(2147483647)   # 2 * (n-1)^2 < 2^63
    ctx = SkewContext(fits, grp, trivial_action(grp, fits))
    augmentation_ideal = skew_ideal_closure(ctx, [ctx.one - ctx.unit_monomial(1)])
    assert augmentation_ideal.size == fits.n
    assert not augmentation_ideal.contains(ctx.one)
    for n in (4294967311, 10**15 + 37):
        ring = ModularRing(n)
        ctx = SkewContext(ring, grp, trivial_action(grp, ring))
        with pytest.raises(CapacityError) as err:
            skew_ideal_closure(ctx, [ctx.one - ctx.unit_monomial(1)])
        assert err.value.cap_name == "int64"


def test_oversized_skew_rings_are_refused_before_validation():
    # |G| * dim_A above MAX_DIM is refused before the action is validated,
    # which would otherwise check every coordinate against every group pair
    grp = GroupTable.cyclic_product([2])
    start = time.perf_counter()
    for points in (2000, 5000):
        ring = FunctionRing(points, 2)
        action = trivial_action(grp, ring)
        with pytest.raises(CapacityError) as err:
            SkewContext(ring, grp, action)
        assert (err.value.cap_name, err.value.requested) == ("dimension", 2 * points)
        assert not action._validated
        T = TransformationGroup(points, grp, [list(range(points))] * 2)
        with pytest.raises(CapacityError):
            T.context
    assert time.perf_counter() - start < 1.0
    ring = FunctionRing(skew.MAX_DIM // 2, 2)
    assert SkewContext(ring, grp, trivial_action(grp, ring)).dim == skew.MAX_DIM


def test_witness_search_finds_invariant_ideal_witness():
    caps = Caps(enumeration=16)
    ctx = two_two_cycles_context(caps)
    verdict = is_simple(ctx)
    assert verdict.value is False
    assert verdict.witness_ideal.basis.rank < ctx.dim


# constructive procedures ----------------------------------------------------------

def test_support_reduce_unit_monomial(conj_f3_ctx):
    r = conj_f3_ctx.unit_monomial(1)
    reduced = support_reduce(conj_f3_ctx, r)
    assert coeff_at_e(reduced).payload == conj_f3_ctx.ring.one
    assert len(reduced.support) <= 1


def test_support_reduce_two_term(swap_ctx):
    r = swap_ctx.one + swap_ctx.monomial((1, 0), 1)
    ideal = skew_ideal_closure(swap_ctx, [r])
    reduced = support_reduce(swap_ctx, r)
    assert ideal.contains(reduced)
    assert coeff_at_e(reduced).payload == swap_ctx.ring.one
    assert len(reduced.support) <= len(r.support)


def test_support_reduce_runs_above_the_enumeration_cap():
    # one closure and one solve: |R| = 2^25 is far above the default cap
    ring = FunctionRing(5, 2)
    grp = GroupTable.cyclic_product([5])
    shifts = [RingAutomorphism.coordinate_permutation(ring, [(i + g) % 5 for i in range(5)])
              for g in range(5)]
    ctx = SkewContext(ring, grp, ActionMap(grp, ring, shifts))
    assert ctx.size > ctx.caps.enumeration
    r = ctx.monomial((1, 0, 0, 0, 0), 0) + ctx.monomial((0, 1, 1, 0, 0), 2)
    assert support_reduce(ctx, r).serialize() == [["0", [1, 1, 1, 1, 1]]]


def test_support_reduce_checks_hypotheses(s3_ctx):
    with pytest.raises(PreconditionError) as err:
        support_reduce(s3_ctx, s3_ctx.one)
    assert "abelian" in str(err.value)
    ctx = two_two_cycles_context()
    with pytest.raises(PreconditionError) as err:
        support_reduce(ctx, ctx.one)
    assert "G-simple" in str(err.value)
    good = swap_context()
    with pytest.raises(DomainError):
        support_reduce(good, good.zero)


def test_central_witness_full_ideal(swap_ctx):
    ideal = skew_ideal_closure(swap_ctx, [swap_ctx.one])
    witness = central_witness(swap_ctx, ideal)
    assert witness == swap_ctx.one


def test_central_witness_conj_f3(conj_f3_ctx):
    ideal = skew_ideal_closure(conj_f3_ctx, [conj_f3_ctx.monomial((0, 1, 2, 0), 1)])
    witness = central_witness(conj_f3_ctx, ideal)
    assert ideal.contains(witness)
    assert is_central(witness)
    assert coeff_at_e(witness).payload == conj_f3_ctx.ring.one
    assert witness in set(skew_center(conj_f3_ctx))


def test_central_witness_proper_ideal_conj_f2(conj_f2_ctx):
    # a proper nonzero ideal in a non-simple ring satisfying the hypotheses
    verdict = is_simple(conj_f2_ctx)
    assert verdict.value is False
    witness = central_witness(conj_f2_ctx, verdict.witness_ideal)
    assert verdict.witness_ideal.contains(witness)
    assert is_central(witness)
    assert coeff_at_e(witness).payload == conj_f2_ctx.ring.one


def test_central_witness_rejects_zero_ideal(swap_ctx):
    zero_ideal = skew_ideal_closure(swap_ctx, [])
    with pytest.raises(DomainError):
        central_witness(swap_ctx, zero_ideal)


# ranks and enumeration -------------------------------------------------------------

def test_rank_roundtrip(conj_f2_ctx):
    for i in range(0, conj_f2_ctx.size, 7):
        r = conj_f2_ctx.element_of_rank(i)
        assert conj_f2_ctx.rank_of(r) == i
        assert conj_f2_ctx.element_of_vec(conj_f2_ctx.vec_of(r)) == r


def test_elements_iteration_cap():
    caps = replace(Caps.from_env(), enumeration=8)
    ctx = swap_context(caps)
    with pytest.raises(CapacityError):
        list(ctx.elements())


def test_prime_power_coefficient_field_context():
    # GF(4) multiplication is not digitwise over F2, but multiplication by a
    # fixed element is still F2-linear, so both engines must agree
    ring = FunctionRing(2, 4)
    grp = GroupTable.cyclic_product([2])
    ctx = SkewContext(ring, grp, ActionMap(grp, ring, [
        RingAutomorphism.identity(ring),
        RingAutomorphism.coordinate_permutation(ring, [1, 0])]))
    gen = ctx.one + ctx.monomial((2, 3), 1)
    ideal = skew_ideal_closure(ctx, [gen])
    span = naive_skew_span(ctx, [gen])
    assert {tuple(v) for v in ideal.iter_vectors()} == span
    assert is_simple(ctx).value is True
    centre = skew_center(ctx)
    assert len(centre) == 4  # the constants: a copy of GF(4)


def test_composite_prime_power_modulus_context():
    ring = ModularRing(4)
    grp = GroupTable.cyclic_product([2])
    ctx = SkewContext(ring, grp, trivial_action(grp, ring))
    verdict = is_simple(ctx)
    assert verdict.value is False
    assert verdict.witness == ctx.monomial(2, 1)
    assert verdict.witness_ideal.size == 4


@pytest.mark.parametrize("ring_factory", [
    lambda: MatrixRing(2, 2), lambda: ModularRing(6), lambda: ModularRing(5),
    lambda: FunctionRing(2, 2)])
def test_trivial_group_oracle_matches_ring_oracle(ring_factory):
    ring = ring_factory()
    grp = GroupTable.cyclic_product([1])
    ctx = SkewContext(ring, grp, trivial_action(grp, ring))
    assert is_simple(ctx).value == is_G_simple(trivial_action(grp, ring)).value


def test_associativity_exhaustive_64_element_ring():
    # every triple in a 64-element skew ring over a non-abelian group
    ring = ModularRing(2)
    grp = GroupTable.symmetric(3)
    ctx = SkewContext(ring, grp, trivial_action(grp, ring))
    assert ctx.size == 64
    elems = list(ctx.elements())
    for r in elems:
        for s in elems:
            rs = r * s
            for t in elems:
                assert rs * t == r * (s * t)


def _fresh_catalogue_context(name):
    from skewsimple.dynamics import catalogue
    return next(T.context for T in catalogue() if T.name == name)


def test_orbit_transforms_wait_for_the_first_full_closure():
    # a sweep that ends at rank 1, by a proper ideal or by the certificate,
    # never builds the unit-monomial matrices
    for ctx in (two_two_cycles_context(), _fresh_catalogue_context("regular_Z3")):
        verdict = is_simple(ctx)
        assert verdict.method in ("full_sweep", "certificate")
        assert verdict.witness is None or ctx.rank_of(verdict.witness) == 1
        assert "unit_monomial_matrices" not in ctx.__dict__
    # past rank 1 the sweep marks unit orbits as before
    ctx = _fresh_catalogue_context("through_quotient_Z4")
    assert is_simple(ctx).method == "full_sweep"
    assert "unit_monomial_matrices" in ctx.__dict__


def test_orbit_transforms_match_one_product_each():
    # several scalar units over F_3, Z/5 and Z/6; F_4 and S3 over F_2
    group = GroupTable.cyclic_product([2])
    contexts = [conj_f3_context(), natural_s3_context(), rotation_z3_context(q=4),
                _fresh_catalogue_context("through_quotient_Z4")]
    contexts += [SkewContext(ModularRing(n), group, trivial_action(group, ModularRing(n)))
                 for n in (5, 6)]
    for ctx in contexts:
        transforms = skew._orbit_transforms(ctx)
        assert transforms.dtype == np.int64
        assert np.array_equal(transforms, naive_orbit_transforms(ctx))


def test_witness_search_enumerates_no_later_family_once_decided(monkeypatch):
    # Z6_mixed_orbits_5pts is decided by its invariant-ideal candidate, so
    # the commuting components C_g are never enumerated
    def no_slots(ctx, g):
        raise AssertionError("commuting components enumerated")

    monkeypatch.setattr(skew, "_slot_payloads", no_slots)
    ctx = _fresh_catalogue_context("Z6_mixed_orbits_5pts")
    verdict = is_simple(ctx)
    assert (verdict.value, verdict.method) == (False, "witness_search")
    assert verdict.witness == ctx.monomial(verdict.witness.coeffs[0], 0)
