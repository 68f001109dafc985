"""The sweep optimizations must never change what the oracle answers.

The reference implementations here are deliberately naive: every nonzero
element is closed independently, with no skipping and no early exits beyond
the first proper ideal, mirroring the oracle's definition word for word.
"""

import numpy as np
import pytest

from skewsimple import GroupTable, ModularRing, skew
from skewsimple.actions import trivial_action
from skewsimple.closure import kernel_rows
from skewsimple.criteria import InstanceSampler
from skewsimple.dynamics import catalogue
from skewsimple.rings import _is_prime
from skewsimple.skew import SkewContext, certificate_draws, certify_simple, is_simple

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


def swept_simplicity(ctx, monkeypatch):
    """The in-cap sweep with the certificate switched off: the reference for
    contexts too large for ``naive_simplicity`` (its skipping is checked
    against that one above)."""
    with monkeypatch.context() as patch:
        patch.setattr(skew, "certify_simple", lambda ctx: False)
        return is_simple(ctx).value


def assert_certificate_sound(ctx, monkeypatch):
    # a True certificate must be a simple ring, so every non-simple context
    # comes back uncertified
    if certify_simple(ctx):
        if ctx.size <= 4096:
            assert naive_simplicity(ctx)[0] is True
        else:
            assert swept_simplicity(ctx, monkeypatch) is True


@pytest.mark.parametrize("make", CASES)
def test_certificate_implies_naive_simplicity(make, monkeypatch):
    assert_certificate_sound(make(), monkeypatch)


def test_certificate_sound_on_in_cap_catalogue(monkeypatch):
    certified = 0
    for T in catalogue():
        ctx = T.context
        if ctx.size <= ctx.caps.enumeration:
            assert_certificate_sound(ctx, monkeypatch)
            certified += certify_simple(ctx)
    # regular_Z2, _Z3, _Z4, _Z2xZ2, swap_2pts, rotation_Z3 and rotation_Z3_q3
    assert certified == 7


def test_certificate_sound_on_sampler_contexts(monkeypatch):
    certified = 0
    for inst in InstanceSampler(0, 4096).draw_many(200):
        assert_certificate_sound(inst.ctx, monkeypatch)
        certified += certify_simple(inst.ctx)
    assert certified == 4


def test_certificate_needs_the_closures():
    # swap_plus_fixed is not simple, yet several drawn theta have a
    # one-dimensional kernel; only the closure of its spanning vector refuses
    T = next(T for T in catalogue() if T.name == "swap_plus_fixed")
    ctx = T.context
    p = ctx.char
    identity = np.eye(ctx.dim, dtype=np.int64)
    nullity_one = 0
    for theta in certificate_draws(ctx):
        kernel = kernel_rows(p, identity, theta.T)
        if len(kernel) == 1:
            nullity_one += 1
            assert not ctx.engine.closure([kernel[0]]).is_full
    assert nullity_one >= 1
    assert certify_simple(ctx) is False


def test_certificate_refuses_composite_characteristic():
    for make in (_z4_ctx, _z6_z2_ctx, _z9_z3_ctx):
        assert certify_simple(make()) is False


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
