import time
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from skewsimple import (ActionValidationError, Caps, DomainError, FunctionRing, GroupTable,
                        MatrixRing, ModularRing, RingSpec, actions)
from skewsimple.actions import (ActionMap, RingAutomorphism, action_from_descriptor,
                                fixed_ring, invariant_ideal_closure, is_G_simple, is_inner,
                                is_outer_action, kernel, trivial_action)
from skewsimple.criteria import InstanceSampler
from skewsimple.dynamics import catalogue
from skewsimple.rings import first_proper_ideal

from conftest import (conj_f2_context, conj_f3_context, natural_s3_context,
                      rotation_z3_context, swap_context, trivial_f2_z2_context,
                      two_two_cycles_context)
from naive import naive_automorphism_violation

# every ring of at most 16 elements the three families build
SMALL_RINGS = ([ModularRing(n) for n in range(2, 17)]
               + [MatrixRing(1, p) for p in (2, 3, 5, 7, 11, 13)] + [MatrixRing(2, 2)]
               + [FunctionRing(k, q) for q, most in ((2, 4), (3, 2), (4, 2))
                  for k in range(1, most + 1)]
               + [FunctionRing(1, q) for q in (5, 7, 8, 9, 11, 13, 16)])


def _frobenius(ring: FunctionRing, a):
    out = []
    for x in a:
        y = 1
        for _ in range(ring.char):
            y = ring.gf.mul(y, x)
        out.append(y)
    return tuple(out)


def structural_tables(ring) -> list[list]:
    """Every structural automorphism of the ring (identity, conjugations,
    coordinate permutations) and its pointwise Frobenius map, each rewritten
    as an image table in rank order."""
    autos = [RingAutomorphism.identity(ring)]
    if isinstance(ring, MatrixRing):
        autos += [RingAutomorphism.conjugation(ring, u) for u in ring.units]
    if isinstance(ring, FunctionRing):
        autos += [RingAutomorphism.coordinate_permutation(ring, p)
                  for p in permutations(range(len(ring.points)))]
    tables = [[auto.apply(a) for a in ring.payloads()] for auto in autos]
    if isinstance(ring, FunctionRing) and ring.gf.degree > 1:
        tables.append([_frobenius(ring, a) for a in ring.payloads()])
    return tables


@st.composite
def small_tables(draw):
    """A ring of at most 16 elements and a bijective image table on it: a
    random permutation, a structural automorphism, or one with two images
    exchanged."""
    ring = draw(st.sampled_from(SMALL_RINGS))
    payloads = list(ring.payloads())
    kind = draw(st.sampled_from(["random", "structural", "exchanged"]))
    if kind == "random":
        return ring, [payloads[i] for i in draw(st.permutations(range(ring.size)))]
    images = list(draw(st.sampled_from(structural_tables(ring))))
    if kind == "exchanged":
        i = draw(st.integers(0, ring.size - 1))
        j = draw(st.integers(0, ring.size - 1))
        images[i], images[j] = images[j], images[i]
    return ring, images


def swap_action():
    ring = FunctionRing(2, 2)
    grp = GroupTable.cyclic_product([2])
    return ActionMap(grp, ring, [RingAutomorphism.identity(ring),
                                 RingAutomorphism.coordinate_permutation(ring, [1, 0])])


@pytest.fixture
def no_sweep(monkeypatch):
    """G-simplicity with the sweep of A made to fail."""
    def sweep(*args):
        raise AssertionError("A swept")

    monkeypatch.setattr(actions, "first_proper_ideal", sweep)


def test_g_simplicity_decided_once_without_a_closure(no_sweep):
    # a G-simple action is decided by the field test of its fixed centre,
    # with no sweep of A and no closure, and the verdict is kept
    action = swap_action()
    engine = action.ideal_engine
    closures = []
    sweep = engine.closure
    engine.closure = lambda *args, **kwargs: closures.append(1) or sweep(*args, **kwargs)
    first = is_G_simple(action)
    assert first.value and not closures
    assert is_G_simple(action) is first


def test_trivial_action_validates():
    action = trivial_action(GroupTable.symmetric(3), ModularRing(6))
    assert action.validate() is None


def test_conjugation_action_validates():
    ring = MatrixRing(2, 3)
    grp = GroupTable.cyclic_product([2])
    action = ActionMap(grp, ring, [RingAutomorphism.identity(ring),
                                   RingAutomorphism.conjugation(ring, (0, 1, 2, 0))])
    assert action.validate() is None


def test_corrupted_table_yields_violation_witness():
    ring = ModularRing(5)
    grp = GroupTable.cyclic_product([2])
    images = list(range(5))
    images[1], images[2] = images[2], images[1]  # swaps 1 and 2: not additive
    action = ActionMap(grp, ring, [RingAutomorphism.identity(ring),
                                   RingAutomorphism.from_table(ring, images)])
    violation = action.validate()
    assert violation is not None
    with pytest.raises(ActionValidationError):
        kernel(action)


def test_non_additive_table_on_f2_16_is_rejected():
    # the identity table of F_2^16 with the images of ranks 15 and 29
    # exchanged: it fixes every additive generator, so its matrix is the
    # identity, yet sigma(x + 1) != sigma(x) + sigma(1); only a few of the
    # 65536^2 pairs break additivity, so a sample of pairs misses it
    ring = FunctionRing(16, 2)
    grp = GroupTable.cyclic_product([2])
    identity = [ring.unrank(i) for i in range(ring.size)]
    swapped = list(identity)
    swapped[15], swapped[29] = swapped[29], swapped[15]
    for images, law in ((swapped, "automorphism not additive"), (identity, None)):
        auto = RingAutomorphism.from_table(ring, images)
        action = ActionMap(grp, ring, [RingAutomorphism.identity(ring), auto])
        start = time.perf_counter()
        violation = action.validate()
        assert time.perf_counter() - start < 2.0
        assert auto.is_identity()
        if law is None:
            assert violation is None
        else:
            # the witness is the first payload off the identity matrix
            assert (violation.law, violation.payload) == (law, ring.unrank(15))


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=repr)
def test_structural_automorphisms_as_tables_validate(ring):
    # each map generates a cyclic group acting through its powers, given as tables
    for images in structural_tables(ring):
        auto = RingAutomorphism.from_table(ring, images)
        assert naive_automorphism_violation(auto) is None
        powers = [list(ring.payloads())]
        while True:
            nxt = [auto.apply(a) for a in powers[-1]]
            if nxt == powers[0]:
                break
            powers.append(nxt)
        grp = GroupTable.cyclic_product([len(powers)])
        action = ActionMap(grp, ring, [RingAutomorphism.from_table(ring, p) for p in powers])
        assert action.validate() is None


@given(small_tables())
def test_table_validation_matches_all_pairs(drawn):
    ring, images = drawn
    auto = RingAutomorphism.from_table(ring, images)
    action = ActionMap(GroupTable.cyclic_product([2]), ring,
                       [RingAutomorphism.identity(ring), auto])
    violation = action.validate()
    naive = naive_automorphism_violation(auto)
    involution = all(auto.apply(auto.apply(a)) == a for a in ring.payloads())
    assert (violation is None) == (naive is None and involution)
    if naive is not None:
        # additivity is decided before multiplicativity, the pairs interleave them
        allowed = {naive}
        if naive == "automorphism not multiplicative":
            allowed.add("automorphism not additive")
        assert violation.law in allowed


def test_homomorphism_law_violation_named():
    # order-4 rotation assigned to an order-2 group element
    ring = FunctionRing(4, 2)
    grp = GroupTable.cyclic_product([2])
    rot = RingAutomorphism.coordinate_permutation(ring, [1, 2, 3, 0])
    action = ActionMap(grp, ring, [RingAutomorphism.identity(ring), rot])
    violation = action.validate()
    assert violation is not None
    assert violation.law == "homomorphism law fails"


def test_homomorphism_law_exact_where_int64_products_wrap():
    # M2(F_p), p = 2^31 - 1: an entry of a product of two automorphism
    # matrices sums up to 4 (p-1)^2, beyond int64. Conjugation by the
    # involution [[a, 1], [1 - a^2, -a]] is a Z2 action (wrapped int64
    # products would call it a violation), conjugation by a transvection
    # (of order p) is not
    p = 2147483647
    ring = MatrixRing(2, p)
    grp = GroupTable.cyclic_product([2])

    def action(v):
        return ActionMap(grp, ring, [RingAutomorphism.identity(ring),
                                     RingAutomorphism.conjugation(ring, v)])

    a = 12345678
    assert action((a, 1, (1 - a * a) % p, p - a)).validate() is None
    assert action((0, 1, 1, 0)).validate() is None
    violation = action((1, 1, 0, 1)).validate()
    assert (violation.law, violation.g, violation.h, violation.payload) == (
        "homomorphism law fails", 1, 1, (1, 0, 0, 0))


def test_conjugation_requires_unit():
    ring = MatrixRing(2, 2)
    with pytest.raises(DomainError):
        RingAutomorphism.conjugation(ring, (1, 0, 0, 0))


def test_unit_scaling_only_identity_survives_validation():
    ring = ModularRing(5)
    grp = GroupTable.cyclic_product([2])
    action = ActionMap(grp, ring, [RingAutomorphism.identity(ring),
                                   RingAutomorphism.unit_scaling(ring, 2)])
    assert action.validate() is not None  # 2*1 != 1: not unital
    trivial = ActionMap(grp, ring, [RingAutomorphism.identity(ring),
                                    RingAutomorphism.unit_scaling(ring, 1)])
    assert trivial.validate() is None


def test_kernel_examples():
    grp = GroupTable.symmetric(3)
    ring = ModularRing(4)
    assert kernel(trivial_action(grp, ring)).members == set(grp.elements())

    ring3 = FunctionRing(3, 2)
    z3 = GroupTable.cyclic_product([3])
    rotation = ActionMap(z3, ring3, [
        RingAutomorphism.coordinate_permutation(ring3, tuple((x - g) % 3 for x in range(3)))
        for g in range(3)])
    assert kernel(rotation).is_trivial

    z4 = GroupTable.cyclic_product([4])
    ring2 = FunctionRing(2, 2)
    through_quotient = ActionMap(z4, ring2, [
        RingAutomorphism.coordinate_permutation(ring2, tuple((x + g) % 2 for x in range(2)))
        for g in range(4)])
    ker = kernel(through_quotient)
    assert ker.members == {0, 2}
    assert ker.is_normal()


def test_fixed_ring_examples():
    grp = GroupTable.cyclic_product([2])
    ring = ModularRing(6)
    assert len(fixed_ring(trivial_action(grp, ring))) == 6

    swap = swap_action()
    assert {e.payload for e in fixed_ring(swap)} == {(0, 0), (1, 1)}

    ring3 = FunctionRing(3, 2)
    z3 = GroupTable.cyclic_product([3])
    rotation = ActionMap(z3, ring3, [
        RingAutomorphism.coordinate_permutation(ring3, tuple((x - g) % 3 for x in range(3)))
        for g in range(3)])
    assert {e.payload for e in fixed_ring(rotation)} == {(0, 0, 0), (1, 1, 1)}


def test_g_simple_examples():
    ring = MatrixRing(2, 3)
    grp = GroupTable.cyclic_product([2])
    conj = ActionMap(grp, ring, [RingAutomorphism.identity(ring),
                                 RingAutomorphism.conjugation(ring, (0, 1, 2, 0))])
    assert is_G_simple(conj).value  # simple coefficient ring

    assert is_G_simple(swap_action()).value  # orbits merge the coordinate ideals

    ring4 = FunctionRing(4, 2)
    z2 = GroupTable.cyclic_product([2])
    two_cycles = ActionMap(z2, ring4, [
        RingAutomorphism.identity(ring4),
        RingAutomorphism.coordinate_permutation(ring4, [1, 0, 3, 2])])
    verdict = is_G_simple(two_cycles)
    assert not verdict.value
    ideal = verdict.witness_ideal
    assert not ideal.is_full and not ideal.is_zero
    # the witness ideal is action-stable
    for a in ideal.elements:
        assert two_cycles.apply(1, a) in ideal.elements


def _frobenius_swap_tables():
    """Every Z/2 action on F_4^1..F_4^4 by a table automorphism that applies
    Frobenius on a subset of the points, after exchanging points 0 and 1 or
    not; the identity and the tables that break the homomorphism law left
    out."""
    z2 = GroupTable.cyclic_product([2])
    found = []
    for npts in range(1, 5):
        ring = FunctionRing(npts, 4)
        for swap in (False, True)[:npts]:
            order = [1, 0] + list(range(2, npts)) if swap else list(range(npts))
            for subset in range(1 << npts):
                if not (subset or swap):
                    continue
                table = []
                for a in ring.payloads():
                    moved = tuple(a[order[i]] for i in range(npts))
                    twisted = _frobenius(ring, moved)
                    table.append(tuple(twisted[i] if subset >> i & 1 else moved[i]
                                       for i in range(npts)))
                action = ActionMap(z2, ring, [RingAutomorphism.identity(ring),
                                              RingAutomorphism.from_table(ring, table)])
                if action.validate() is None:
                    found.append(action)
    return found


def test_fixed_centre_verdict_agrees_with_the_sweep():
    # the field test of Z(A)^G against the sweep for the first proper
    # invariant ideal, on every in-cap catalogue, sampler and conftest
    # action and on the semilinear (Frobenius, swap) tables
    contexts = [T.context for T in catalogue() if T.context.ring.size <= T.context.caps.enumeration]
    contexts += [inst.ctx for inst in InstanceSampler(0, 4096).draw_many(200)]
    contexts += [make() for make in (
        swap_context, conj_f3_context, conj_f2_context, natural_s3_context,
        two_two_cycles_context, trivial_f2_z2_context, rotation_z3_context)]
    actions = [ctx.action for ctx in contexts]
    semilinear = _frobenius_swap_tables()
    assert (len(actions), len(semilinear)) == (227, 40)
    verdicts = set()
    for action in actions + semilinear:
        swept = first_proper_ideal(action.ring, action.ideal_engine, "reference sweep") is None
        assert (action.fixed_center[1] is None) == swept, action
        assert is_G_simple(action).value == swept, action
        verdicts.add(swept)
    assert verdicts == {True, False}


def _regular_rotation(n, caps):
    ring = FunctionRing(n, 2, caps)
    group = GroupTable.cyclic_product([n], caps)
    return ActionMap(group, ring, [
        RingAutomorphism.coordinate_permutation(ring, tuple((x - g) % n for x in range(n)))
        for g in range(n)])


@pytest.mark.parametrize("n", [8, 16])
def test_regular_action_is_G_simple_without_a_sweep(no_sweep, n):
    # F_2^n is far above a cap of 16; one orbit makes Z(A)^G = F_2
    action = _regular_rotation(n, Caps(enumeration=16))
    assert is_G_simple(action).value


def test_action_that_is_not_G_simple_above_the_cap(no_sweep):
    # two 2-cycles on F_2^4 at a cap of 4: the witness is the fixed
    # centre's obstruction, and its invariant closure is proper
    ring = FunctionRing(4, 2, Caps(enumeration=4))
    two_cycles = ActionMap(GroupTable.cyclic_product([2]), ring, [
        RingAutomorphism.identity(ring),
        RingAutomorphism.coordinate_permutation(ring, [1, 0, 3, 2])])
    verdict = is_G_simple(two_cycles)
    assert not verdict.value
    assert verdict.witness.payload == ring.from_vec(two_cycles.fixed_center[1].tolist())
    closed = invariant_ideal_closure(two_cycles, [verdict.witness])
    assert not closed.is_full and not closed.is_zero
    assert closed.basis.key() == verdict.witness_ideal.basis.key()


def test_G_simplicity_refuses_a_ring_kind_it_cannot_vouch_for():
    # the fixed-centre criterion assumes a semisimple A in prime
    # characteristic, or Z/n; another kind of ring is refused
    class Unvouched(RingSpec):
        descriptor = ("unvouched",)

    action = trivial_action(GroupTable.cyclic_product([1]), Unvouched())
    with pytest.raises(DomainError, match="semisimple"):
        is_G_simple(action)


def test_invariant_closure_extends_plain_closure():
    ring4 = FunctionRing(4, 2)
    z2 = GroupTable.cyclic_product([2])
    two_cycles = ActionMap(z2, ring4, [
        RingAutomorphism.identity(ring4),
        RingAutomorphism.coordinate_permutation(ring4, [1, 0, 3, 2])])
    gen = (1, 0, 0, 0)
    closed = invariant_ideal_closure(two_cycles, [gen])
    assert closed.elements == {(a, b, 0, 0) for a in range(2) for b in range(2)}


def test_g_simplicity_monotone_in_automorphism_set():
    # restricting an action to a subgroup only removes stability constraints
    ring = FunctionRing(4, 2)
    z4 = GroupTable.cyclic_product([4])
    rotation = ActionMap(z4, ring, [
        RingAutomorphism.coordinate_permutation(ring, tuple((x - g) % 4 for x in range(4)))
        for g in range(4)])
    assert is_G_simple(rotation).value
    z2 = GroupTable.cyclic_product([2])
    half = ActionMap(z2, ring, [rotation.autos[0], rotation.autos[2]])
    # the half-turn has two orbits, so the restricted action is not G-simple
    assert not is_G_simple(half).value
    # and monotonicity: G-simple under fewer automorphisms implies it under more
    swap = swap_action()
    bigger = is_G_simple(swap)
    z1 = GroupTable.cyclic_product([1])
    sub = ActionMap(z1, swap.ring, [RingAutomorphism.identity(swap.ring)])
    if is_G_simple(sub).value:
        assert bigger.value


def test_is_inner_examples():
    ring = MatrixRing(2, 3)
    ident = RingAutomorphism.identity(ring)
    witness = is_inner(ident)
    assert witness is not None and witness.payload == ring.one

    conj = RingAutomorphism.conjugation(ring, (0, 1, 2, 0))
    witness = is_inner(conj)
    assert witness is not None
    v = witness.payload
    w = ring.try_invert_payload(v)
    for b in ring.additive_generators():
        assert conj.apply(b) == ring.mul(ring.mul(v, b), w)

    swap = swap_action().autos[1]
    assert is_inner(swap) is None


def test_outer_action_examples():
    grp = GroupTable.cyclic_product([2])
    ring = ModularRing(6)
    assert not is_outer_action(trivial_action(grp, ring))
    assert is_outer_action(swap_action())
    ring3 = MatrixRing(2, 3)
    conj = ActionMap(grp, ring3, [RingAutomorphism.identity(ring3),
                                  RingAutomorphism.conjugation(ring3, (0, 1, 2, 0))])
    assert not is_outer_action(conj)


def test_commutative_injective_implies_outer():
    # inner automorphisms of commutative rings are trivial
    action = swap_action()
    assert kernel(action).is_trivial
    assert is_outer_action(action)


def test_action_from_descriptor_roundtrip():
    grp = GroupTable.cyclic_product([2])
    ring = MatrixRing(2, 3)
    action = action_from_descriptor(grp, ring, {
        "kind": "conjugation",
        "units": [[[1, 0], [0, 1]], [[0, 1], [2, 0]]],
    })
    assert action.validate() is None
    assert action.apply(1, (1, 0, 0, 0)) == RingAutomorphism.conjugation(
        ring, (0, 1, 2, 0)).apply((1, 0, 0, 0))
    with pytest.raises(DomainError):
        action_from_descriptor(grp, ring, {"kind": "nonsense"})


def test_fixed_ring_is_unital_subring():
    ring3 = FunctionRing(3, 2)
    z3 = GroupTable.cyclic_product([3])
    rotation = ActionMap(z3, ring3, [
        RingAutomorphism.coordinate_permutation(ring3, tuple((x - g) % 3 for x in range(3)))
        for g in range(3)])
    fixed = {e.payload for e in fixed_ring(rotation)}
    assert ring3.zero in fixed and ring3.one in fixed
    for a in fixed:
        for b in fixed:
            assert ring3.add(a, b) in fixed
            assert ring3.mul(a, b) in fixed
