"""The A-level facts from one kernel against the payload-by-payload loops.

``RingAutomorphism.centralizer`` (the twisted centralizer C(sigma)),
``is_inner``, ``fixed_ring`` and ``center`` are kernels of linear maps on A's
coordinates. On the 256 reference contexts (the dynamics catalogue,
``InstanceSampler(0, 4096).draw_many(200)`` and Z/n x| G for n in 4..12 and G
in Z2, Z3, Z2xZ2, S3), on conjugation by every unit of M2(F2), M2(F3) and
M1(F5), and on the Frobenius tables of F_4^1 to F_4^3, they must answer as the
loops over every payload in ``naive.py``. Above the enumeration cap they must
still answer, where those loops cannot; above the dimension bound they are
refused before A's structure constants are built.
"""

import json
import time

import numpy as np
import pytest

from skewsimple import (CapacityError, Caps, FunctionRing, GroupTable, MatrixRing, ModularRing,
                        skew)
from skewsimple.actions import (ActionMap, RingAutomorphism, fixed_ring, is_inner,
                                is_outer_action, trivial_action)
from skewsimple.criteria import InstanceSampler
from skewsimple.dynamics import catalogue
from skewsimple.instances import parse_instance
from skewsimple.report import canonical_json, run_checks
from skewsimple.rings import center, ideal_closure
from skewsimple.skew import SkewContext

from naive import naive_center, naive_fixed_payloads, naive_is_inner


def _reference_contexts():
    contexts = [T.context for T in catalogue()]
    contexts += [inst.ctx for inst in InstanceSampler(0, 4096).draw_many(200)]
    groups = [GroupTable.cyclic_product([2]), GroupTable.cyclic_product([3]),
              GroupTable.cyclic_product([2, 2]), GroupTable.symmetric(3)]
    for n in range(4, 13):
        for group in groups:
            ring = ModularRing(n)
            contexts.append(SkewContext(ring, group, trivial_action(group, ring)))
    return contexts


def _naive_twisted_centralizer(auto) -> set:
    ring = auto.ring
    gens = ring.additive_generators()
    return {a for a in ring.payloads()
            if all(ring.mul(b, a) == ring.mul(a, auto.apply(b)) for b in gens)}


def _mismatches(auto) -> list[str]:
    ring = auto.ring
    out = []
    members = ring.members(auto.centralizer, "test")
    if members != sorted(_naive_twisted_centralizer(auto), key=ring.rank):
        out.append("centralizer")
    found, expected = is_inner(auto), naive_is_inner(auto)
    if (None if found is None else found.payload) != expected:
        out.append("is_inner")
    return out


def _frobenius_table(ring: FunctionRing) -> RingAutomorphism:
    gf = ring.gf
    return RingAutomorphism.from_table(
        ring, [tuple(gf.mul(x, x) for x in a) for a in ring.payloads()])


def test_a_level_kernels_match_the_loops_on_the_reference_contexts():
    contexts = _reference_contexts()
    assert len(contexts) == 256
    bad, autos = [], 0   # the automorphisms of the non-identity elements
    for ctx in contexts:
        ring, action = ctx.ring, ctx.action
        if [e.payload for e in center(ring)] != naive_center(ring):
            bad.append((ctx, "center"))
        if [e.payload for e in fixed_ring(action)] != sorted(naive_fixed_payloads(action),
                                                             key=ring.rank):
            bad.append((ctx, "fixed_ring"))
        for auto in action.autos[1:]:
            autos += 1
            bad += [(ctx, auto, what) for what in _mismatches(auto)]
    assert not bad, bad[:5]
    assert autos == 704


def test_the_centre_shortcuts_give_the_kernels_rows():
    # a commutative A's centre is taken as the identity rows, and a map whose
    # matrix is the identity reads that centre: both as the kernel gives them
    commutative = identity_maps = 0
    for ctx in _reference_contexts():
        ring = ctx.ring
        eye = np.eye(ring.dim, dtype=np.int64)
        centre, kernel = ring.center_basis, ring.twisted_centralizer(eye)
        assert (centre.key(), centre.pivots, centre.divs) == \
            (kernel.key(), kernel.pivots, kernel.divs)
        commutative += ring.is_commutative
        for auto in ctx.action.autos:
            if auto.kind != "identity" and np.array_equal(auto.matrix(), eye):
                identity_maps += 1
                assert auto.centralizer is centre
    assert commutative > 200 and identity_maps > 10


def test_a_level_kernels_match_the_loops_on_conjugations_and_frobenius():
    autos = [RingAutomorphism.conjugation(ring, u)
             for ring in (MatrixRing(2, 2), MatrixRing(2, 3), MatrixRing(1, 5))
             for u in ring.units]
    autos += [_frobenius_table(FunctionRing(k, 4)) for k in (1, 2, 3)]
    assert len(autos) == 61
    bad = [(auto, what) for auto in autos for what in _mismatches(auto)]
    assert not bad, bad[:5]
    assert all(is_inner(auto) is None for auto in autos[-3:])


def test_a_level_facts_are_decided_above_the_enumeration_cap():
    ring = MatrixRing(2, 3, Caps(enumeration=16))
    with pytest.raises(CapacityError):
        list(ring.payloads())
    assert [e.payload for e in center(ring)] == [(c, 0, 0, c) for c in range(3)]
    v = (0, 1, 2, 0)
    conj = RingAutomorphism.conjugation(ring, v)
    assert is_inner(conj).payload == v
    group = GroupTable.cyclic_product([2])
    action = ActionMap(group, ring, [RingAutomorphism.identity(ring), conj])
    assert not is_outer_action(action)
    # the fixed ring is F_3[v], a field of 9 elements since v^2 = -1
    fixed = [e.payload for e in fixed_ring(action)]
    assert len(fixed) == 9 and all(conj.apply(a) == a for a in fixed)


def test_the_identity_is_inner_above_the_enumeration_cap():
    # F_2^20 has 2^20 central elements, above the cap; the identity is
    # conjugation by 1 without its twisted centralizer (the centre) listed
    ring = FunctionRing(20, 2)
    assert ring.center_basis.size > ring.caps.enumeration
    assert is_inner(RingAutomorphism.identity(ring)) == ring.one_element
    assert is_outer_action(trivial_action(GroupTable.cyclic_product([2]), ring)) is False
    # so outer_simplicity on a non-injective action over it fails its hypothesis
    doc = {"name": "f2x20_z2_trivial", "witness_search": True,
           "ring": {"kind": "function", "points": 20, "q": 2},
           "group": {"kind": "cyclic_product", "orders": [2]},
           "action": {"kind": "trivial"}}
    report = json.loads(canonical_json(run_checks(parse_instance(json.dumps(doc)),
                                                  ["outer_simplicity"])))
    assert report["checks"]["outer_simplicity"]["status"] == "precondition_failed"


def test_is_inner_refuses_at_once_when_the_centralizer_is_not_the_centres_size():
    # swapping the two points of F_2^2: a b = a sigma(b) for b = (1,0) makes
    # a vanish at both points, so C(sigma) = {0} against |Z| = 4, and no unit
    # is enumerated even with a cap of one element
    ring = FunctionRing(2, 2)
    swap = RingAutomorphism.coordinate_permutation(ring, (1, 0))
    assert swap.centralizer.size == 1 and ring.center_basis.size == 4
    ring.caps = Caps(enumeration=1)
    assert is_inner(swap) is None


def test_rings_above_the_dimension_bound_build_no_structure_constants():
    # 2 * 257^3 entries would be built otherwise; each call is refused at once,
    # and so is the action's validation, which multiplies its matrices. The
    # identity needs no centralizer (it is conjugation by 1), so the action
    # swaps two points.
    ring = FunctionRing(skew.MAX_DIM + 1, 2)
    swap = (1, 0) + tuple(range(2, skew.MAX_DIM + 1))
    action = ActionMap(GroupTable.cyclic_product([2]), ring,
                       [RingAutomorphism.identity(ring),
                        RingAutomorphism.coordinate_permutation(ring, swap)])
    start = time.perf_counter()
    assert is_inner(action.autos[0]) == ring.one_element
    for query in (lambda: center(ring), lambda: is_inner(action.autos[1]),
                  lambda: is_outer_action(action), lambda: ideal_closure(ring, [ring.one]),
                  action.validate):
        with pytest.raises(CapacityError) as err:
            query()
        assert err.value.cap_name == "dimension"
    assert time.perf_counter() - start < 1.0
