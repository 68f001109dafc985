"""The sweep optimizations must never change what the oracle answers.

The reference implementations here are deliberately naive: every nonzero
element is closed independently, with no skipping and no early exits beyond
the first proper ideal, mirroring the oracle's definition word for word.
"""

import numpy as np
import pytest

from skewsimple import GroupTable, ModularRing
from skewsimple.actions import trivial_action
from skewsimple.rings import _is_prime
from skewsimple.skew import SkewContext, is_simple

from conftest import (conj_f2_context, rotation_z3_context, swap_context,
                      trivial_f2_z2_context, two_two_cycles_context)
from naive import naive_skew_span, skew_operators


def naive_simplicity(ctx):
    """Reference sweep: no unit-orbit skipping, no shared state.

    Over a field each element is closed with the engine; in composite
    characteristic with the naive set span, whose operators are products of
    skew elements.
    """
    if _is_prime(ctx.char):
        for i in range(1, ctx.size):
            vec = np.asarray(ctx.vec_of(ctx.element_of_rank(i)), dtype=np.int64)
            if not ctx.engine.closure([vec]).is_full:
                return False, i
        return True, None
    ops = skew_operators(ctx)
    for i in range(1, ctx.size):
        if len(naive_skew_span(ctx, [ctx.element_of_rank(i)], ops)) != ctx.size:
            return False, i
    return True, None


def _trivial_ctx(n, grp):
    # the identity is the only automorphism of Z/n
    ring = ModularRing(n)
    return SkewContext(ring, grp, trivial_action(grp, ring))


def _z4_ctx():
    return _trivial_ctx(4, GroupTable.cyclic_product([2]))


def _z6_z2_ctx():
    return _trivial_ctx(6, GroupTable.cyclic_product([2]))


def _z9_z3_ctx():
    return _trivial_ctx(9, GroupTable.cyclic_product([3]))


def _z4_s3_ctx():
    return _trivial_ctx(4, GroupTable.symmetric(3))


CASES = [
    swap_context,
    conj_f2_context,
    trivial_f2_z2_context,
    two_two_cycles_context,
    rotation_z3_context,
    _z4_ctx,
    _z6_z2_ctx,
    _z9_z3_ctx,
    _z4_s3_ctx,
]


@pytest.mark.parametrize("make", CASES)
def test_optimized_sweep_matches_naive_reference(make):
    ctx = make()
    assert ctx.size <= 4096, "keep the naive reference affordable"
    expected, first_bad = naive_simplicity(ctx)
    verdict = is_simple(ctx)
    assert verdict.value is expected
    if not expected:
        # the optimized sweep must find the same canonical first witness:
        # skipping only removes elements whose closure is known full
        assert ctx.rank_of(verdict.witness) == first_bad


def test_witness_search_results_always_verify():
    # every non-simplicity claim from witness mode must carry a generator
    # whose closure is checkably proper
    from skewsimple.config import Caps
    for make in (two_two_cycles_context, conj_f2_context):
        ctx = make(Caps(enumeration=32))
        verdict = is_simple(ctx)
        assert verdict.value is False
        assert verdict.method == "witness_search"
        assert len(verdict.witness.support) <= 2
        assert verdict.witness_ideal.contains(verdict.witness)
        assert verdict.witness_ideal.basis.rank < ctx.dim


def test_sampled_instances_satisfy_basic_laws():
    # algebra laws on sampler-produced instances, independent of the checks
    from skewsimple.criteria import InstanceSampler
    from skewsimple.skew import augmentation
    import random
    sampler = InstanceSampler(2024, max_size=1024)
    rng = random.Random(55)
    for inst in sampler.draw_many(10):
        ctx = inst.ctx
        for g in ctx.group.elements():
            u = ctx.unit_monomial(g)
            uinv = ctx.unit_monomial(ctx.group.inv(g))
            assert u * uinv == ctx.one
            for b in ctx.ring.additive_generators():
                assert u * ctx.monomial(b, 0) * uinv == ctx.monomial(
                    ctx.action.apply(g, b), 0)
        for _ in range(50):
            r = ctx.element_of_rank(rng.randrange(ctx.size))
            s = ctx.element_of_rank(rng.randrange(ctx.size))
            t = ctx.element_of_rank(rng.randrange(ctx.size))
            assert (r * s) * t == r * (s * t)
            assert augmentation(r + s) == augmentation(r) + augmentation(s)
