"""The sweep optimizations must never change what the oracle answers.

The reference implementations here are deliberately naive: every nonzero
element is closed independently, with no skipping and no early exits beyond
the first proper ideal, mirroring the oracle's definition word for word.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from skewsimple import Caps, FunctionRing, GroupTable, MatrixRing, ModularRing, skew
from skewsimple.actions import ActionMap, trivial_action
from skewsimple.closure import ClosureEngine, kernel_rows
from skewsimple.criteria import InstanceSampler
from skewsimple.dynamics import catalogue
from skewsimple.rings import _is_prime
from skewsimple.skew import SkewContext, certificate_draws, certify_simple, is_simple

from conftest import (conj_f2_context, conj_f3_context, rotation_z3_context, swap_context,
                      trivial_f2_z2_context, two_two_cycles_context)
from naive import (module_generator_operators, naive_closure, naive_skew_span,
                   skew_operators)

FIXTURES = Path(__file__).parent / "fixtures"


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


def test_certificate_over_the_centre_field(monkeypatch):
    # Z = F_9 has F_3-dimension 2, so every theta has even nullity: the
    # certificate needs nullity 2
    from skewsimple.config import Caps
    ctx = conj_f3_context()
    assert skew._center_field_degree(ctx) == 2
    assert certify_simple(ctx) is True
    assert swept_simplicity(ctx, monkeypatch) is True
    small = conj_f3_context()
    # the centre comes from its basis, so |A| = 81 above the ring's
    # enumeration cap changes nothing
    monkeypatch.setattr(small.ring, "caps", Caps(enumeration=64))
    assert skew._center_field_degree(small) == 2
    assert certify_simple(small) is True


def test_certificate_refuses_a_centre_that_is_not_a_field():
    # Z/3 x| Z2 with the trivial action is F_3 x F_3, and so is its centre:
    # the first theta is zero, whose kernels are everything, and both
    # closures of the first kernel rows are full; only the field test refuses
    ctx = _trivial_ctx(3, GroupTable.cyclic_product([2]))
    identity = np.eye(ctx.dim, dtype=np.int64)
    theta = next(certificate_draws(ctx))
    kernel = kernel_rows(3, identity, theta.T)
    assert len(kernel) == ctx.center_basis.rank == 2
    assert ctx.engine.closure(kernel[:1]).is_full
    assert ctx.dual_engine.closure(kernel_rows(3, identity, theta)[:1]).is_full
    assert skew._center_field_degree(ctx) == 0
    assert certify_simple(ctx) is False
    assert naive_simplicity(ctx)[0] is False


def test_certificate_refuses_a_non_field_centre_before_drawing(monkeypatch):
    # M2(F2) x| Z/2 by conjugation has a centre that is not a field: the gate
    # refuses before a single theta is drawn
    def no_draws(ctx):
        raise AssertionError("theta drawn for a centre that is not a field")

    monkeypatch.setattr(skew, "certificate_draws", no_draws)
    ctx = conj_f2_context()
    assert certify_simple(ctx) is False
    assert ctx.center_obstruction is not None


def test_field_test_runs_once_per_context(monkeypatch):
    # the certificate and the centre-is-field verdict share one field test
    from skewsimple import criteria
    calls = []
    original = criteria.field_obstruction
    monkeypatch.setattr(criteria, "field_obstruction",
                        lambda ctx: calls.append(ctx) or original(ctx))
    ctx = conj_f3_context()
    report = criteria.necessary_conditions(ctx)
    assert report.verdicts["center_is_field"].value is True
    assert report.verdicts["simple"].value is True
    assert certify_simple(ctx) is True
    assert calls == [ctx]


SWAP_2PTS = {"name": "swap_2pts", "dynamics": {
    "points": 2, "group": {"kind": "cyclic_product", "orders": [2]}, "act": [[0, 1], [1, 0]]}}


@pytest.mark.parametrize("text,oracle", [
    ((FIXTURES / "natural_s3.json").read_text(encoding="utf-8"), "_witness_search"),
    (json.dumps(SWAP_2PTS), "_sweep_prime")], ids=["natural_s3", "swap_2pts"])
def test_report_runs_the_oracle_once_per_context(monkeypatch, text, oracle):
    # the algebra and dynamics checks of one report read one cached verdict
    from skewsimple.instances import parse_instance
    from skewsimple.report import DYNAMICS_CHECKS, run_checks
    runs = []
    for name in ("_sweep_prime", "_witness_search"):
        original = getattr(skew, name)
        monkeypatch.setattr(skew, name, lambda ctx, name=name, original=original:
                            runs.append(name) or original(ctx))
    report = run_checks(parse_instance(text))   # a fresh context
    assert report["violations"] == []
    assert report["checks"]["dynamics_simplicity"]["status"] == "ran"
    assert set(DYNAMICS_CHECKS) < set(report["checks"])
    assert runs == [oracle]


def test_regular_z3_is_certified_at_the_first_closure(monkeypatch):
    # regular_Z3 is M3(F2): the sweep closes rank 1, then the certificate
    # closes v and w, and nothing else is closed
    ctx = next(T for T in catalogue() if T.name == "regular_Z3").context
    closures = []
    original = ClosureEngine.closure
    monkeypatch.setattr(ClosureEngine, "closure",
                        lambda self, *args, **kw: closures.append(1) or original(self, *args, **kw))
    verdict = is_simple(ctx)
    assert (verdict.value, verdict.method) == (True, "certificate")
    assert len(closures) == 3


def _verdict_bytes(verdict):
    witness = None if verdict.witness is None else verdict.witness.serialize()
    return verdict.value, json.dumps(witness)


def test_certificate_changes_no_sweep_verdict_or_witness(monkeypatch):
    # the certificate only ever proves simplicity, so trying it at the
    # sweep's first full closure leaves every value and every first witness
    # as the certificate-free sweep finds them
    contexts = [ctx for ctx in (T.context for T in catalogue()) if ctx.size <= 4096]
    contexts += [inst.ctx for inst in InstanceSampler(0, 4096).draw_many(200)]
    assert len(contexts) == 209
    for ctx in contexts:
        verdict = _verdict_bytes(is_simple(ctx))
        with monkeypatch.context() as patch:
            patch.setattr(skew, "certify_simple", lambda ctx: False)
            assert _verdict_bytes(skew._sweep_prime(ctx)) == verdict, ctx


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


def _at_cap(ctx, enumeration):
    """ctx over a fresh copy of its ring, with it and the ring capped at
    ``enumeration``; the group and the automorphisms are shared."""
    caps = Caps(enumeration=enumeration)
    kind, *args = ctx.ring.descriptor
    ring = {"modular": ModularRing, "matrix": MatrixRing, "function": FunctionRing}[kind](
        *args, caps)
    return SkewContext(ring, ctx.group, ActionMap(ctx.group, ring, ctx.action.autos), caps)


def _proper_witness(ctx, verdict):
    vec = np.asarray(ctx.vec_of(verdict.witness), dtype=np.int64)
    return (verdict.witness_ideal.contains(verdict.witness)
            and not ctx.engine.closure([vec]).is_full)


def test_witness_search_agrees_with_the_sweep_at_a_cap_of_four():
    # every in-cap catalogue and sampler context above 4 elements, searched
    # with the cap forced to 4, answers as the sweep does, and none is left
    # undetermined
    contexts = [T.context for T in catalogue()]
    contexts += [inst.ctx for inst in InstanceSampler(0, 4096).draw_many(200)]
    compared = 0
    for ctx in contexts:
        if not 4 < ctx.size <= ctx.caps.enumeration:
            continue
        capped = _at_cap(ctx, 4)
        verdict = is_simple(capped)
        assert verdict.value is skew._sweep_prime(ctx).value, ctx
        assert verdict.method in ("witness_search", "certificate")
        if verdict.value is False:
            assert _proper_witness(capped, verdict), ctx
        compared += 1
    assert compared == 199


@pytest.mark.parametrize("name", ["two_2cycles", "Z6_mixed_orbits_5pts", "conj_f2_context",
                                  "two_two_cycles_context"])
def test_witness_search_decides_at_a_cap_of_four(name):
    # with the cap at 4 the commuting family, which lists A, is skipped; the
    # invariant-ideal family offers the fixed centre's obstruction when A is
    # not G-simple, and the search decides each with a checkably proper
    # witness
    caps = Caps(enumeration=4)
    makers = {"conj_f2_context": conj_f2_context,
              "two_two_cycles_context": two_two_cycles_context}
    if name in makers:
        ctx = makers[name](caps)
    else:
        ctx = next(T for T in catalogue(caps) if T.name == name).context
    verdict = is_simple(ctx)
    assert (verdict.value, verdict.method) == (False, "witness_search")
    assert _proper_witness(ctx, verdict)


def test_the_centre_obstruction_is_the_witness_past_the_structured_families():
    # no structured candidate decides these at a cap of 16; the centre's
    # nonzero non-unit does
    sampled = {inst.name: inst.ctx for inst in InstanceSampler(0, 4096).draw_many(200)}
    contexts = [conj_f2_context(Caps(enumeration=16))]
    contexts += [_at_cap(sampled[name], 16)
                 for name in ("Z2_M2F2_conjugation_130", "Z3_M2F2_conjugation_134")]
    for ctx in contexts:
        verdict = is_simple(ctx)
        assert (verdict.value, verdict.method) == (False, "witness_search")
        assert verdict.witness == ctx.center_obstruction
        assert _proper_witness(ctx, verdict)


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


def reference_contexts():
    """The 20 catalogue actions, 200 sampled instances and Z/n x| G with the
    trivial action for n in 4..12 and G in Z2, Z3, Z2xZ2, S3: 256 contexts."""
    for T in catalogue():
        yield T.context
    for inst in InstanceSampler(0, 4096).draw_many(200):
        yield inst.ctx
    groups = (GroupTable.cyclic_product([2]), GroupTable.cyclic_product([3]),
              GroupTable.cyclic_product([2, 2]), GroupTable.symmetric(3))
    for n in range(4, 13):
        for grp in groups:
            yield _trivial_ctx(n, grp)


def test_engines_match_module_generator_closures():
    # the engines close under the ring generators b_t u_e and u_g (g a group
    # generator); the reference closes under L and R of every module
    # generator b*u_h, built from SkewElement products. Both must give the
    # same ideal, and the transposed operators the same annihilator closures.
    rng = np.random.default_rng(8)
    count = 0
    for ctx in reference_contexts():
        count += 1
        n, dim = ctx.char, ctx.dim
        ops = module_generator_operators(ctx)
        reference = ClosureEngine(n, dim, ops)
        dual_reference = ClosureEngine(n, dim, [op.T for op in ops])
        seeds = [[tuple(int(i == 0) for i in range(dim))], list(rng.integers(0, n, size=(1, dim)))]
        seeds += [[ctx.vec_of(ctx.one - ctx.unit_monomial(g))] for g in ctx.group.generators[:1]]
        for seed in seeds:
            for engine, ref in ((ctx.engine, reference), (ctx.dual_engine, dual_reference)):
                assert engine.closure(seed).key() == ref.closure(seed).key()
    assert count == 256


class _NoMemo(dict):
    """An ideal memo that never stores, so every closure is computed afresh."""

    def __setitem__(self, key, value):
        pass


def _in_cap_contexts():
    """Fresh contexts: the in-cap catalogue actions and 200 sampled ones."""
    contexts = [ctx for ctx in (T.context for T in catalogue()) if ctx.size <= 4096]
    return contexts + [inst.ctx for inst in InstanceSampler(0, 4096).draw_many(200)]


def _oracle_and_procedures(ctx) -> list:
    """What the suite's constructive probe reads, as bytes: the verdict, and
    on the witness ideal and the ideal of the middle-ranked element their
    Howell rows, the central witness and each generator's support reduction
    (or the name of the error a procedure raises)."""
    from skewsimple.errors import SkewSimpleError
    from skewsimple.skew import central_witness, skew_ideal_closure, support_reduce

    verdict = is_simple(ctx)
    out = [_verdict_bytes(verdict)]
    ideals = [] if verdict.witness_ideal is None else [verdict.witness_ideal]
    ideals.append(skew_ideal_closure(ctx, [ctx.element_of_rank(1 + (ctx.size - 1) // 2)]))
    for ideal in ideals:
        gen = ideal.generators[0]
        out.append(skew_ideal_closure(ctx, [gen]).basis.key())
        for procedure, arg in ((central_witness, ideal), (support_reduce, gen)):
            try:
                out.append(json.dumps(procedure(ctx, arg).serialize()))
            except SkewSimpleError as exc:
                out.append(type(exc).__name__)
    return out


def test_ideal_memo_changes_no_result(monkeypatch):
    # the memo returns the Howell basis a fresh closure builds, so a context
    # whose memo never stores answers byte for byte as one that reuses it
    closures = []
    original = ClosureEngine.closure
    monkeypatch.setattr(ClosureEngine, "closure",
                        lambda self, *args, **kw: closures.append(1) or original(self, *args, **kw))
    memoized = [_oracle_and_procedures(ctx) for ctx in _in_cap_contexts()]
    with_memo = len(closures)
    bypassed = []
    for ctx in _in_cap_contexts():
        ctx.ideal_memo = _NoMemo()
        bypassed.append(_oracle_and_procedures(ctx))
    assert len(memoized) == 209
    assert memoized == bypassed
    # the memo is exercised: the witness ideal and the procedures' closures
    # of an ideal's own generators are read from it
    assert with_memo < len(closures) - with_memo


def test_memo_holds_at_most_the_witness_ideal_after_the_sweep():
    # full closures inside the sweep are never stored
    for ctx in _in_cap_contexts():
        verdict = is_simple(ctx)
        assert len(ctx.ideal_memo) == (verdict.value is False), ctx
        if verdict.value is False:
            assert ctx.ideal_memo[ctx.vec_of(verdict.witness)] is verdict.witness_ideal.basis


def test_central_unit_monomial_ends_the_certificate_before_the_field_test(monkeypatch):
    # F_3[Z4] with the trivial action: u_1 is central, 1 - u_1 a central zero
    # divisor, so the centre is no field and no field test is needed
    from skewsimple import criteria

    def no_field_test(ctx):
        raise AssertionError("field test run")

    monkeypatch.setattr(criteria, "field_obstruction", no_field_test)
    ctx = _trivial_ctx(3, GroupTable.cyclic_product([4]))
    assert skew._has_central_unit_monomial(ctx)
    assert certify_simple(ctx) is False
    assert is_simple(ctx).value is False


def test_central_unit_monomial_gate_agrees_with_the_field_test():
    # whenever the gate fires the field test finds an obstruction too
    fired = 0
    for ctx in reference_contexts():
        if skew._has_central_unit_monomial(ctx):
            fired += 1
            assert ctx.center_obstruction is not None, ctx
    assert fired > 50


def test_engine_matches_reference_closure():
    # the block basis and the stacked operators against the row-by-row
    # reference applying each operator on its own: the closures of the
    # rank-1 element and of the oracle's witness, on the catalogue and
    # sampled contexts
    contexts = [T.context for T in catalogue()]
    contexts += [inst.ctx for inst in InstanceSampler(0, 4096).draw_many(200)[:50]]
    compared = sequential = 0
    for ctx in contexts:
        seeds = [ctx.element_of_rank(1)]
        witness = is_simple(ctx).witness
        if witness is not None:
            seeds.append(witness)
        for r in seeds:
            vec = ctx.vec_of(r)
            basis = ctx.engine.closure([vec])
            ref = naive_closure(ctx.char, ctx.dim, ctx.ideal_operator_matrices, [vec])
            assert (basis.key(), basis.pivots, basis.divs) == (
                ref.key(), ref.pivots, ref.divs), ctx
            compared += 1
            sequential += any(d != 1 for d in basis.divs)
    assert compared == 128
    assert sequential > 0   # some closures meet a non-unit pivot
