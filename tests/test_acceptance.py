"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion pins its stated size, structure and runtime budget.
"""

import time
from contextlib import contextmanager

import pytest

from skewsimple import skew
from skewsimple.criteria import (InstanceEvaluation, abelian_simplicity_check,
                                 center_structure_check, necessary_conditions)
from skewsimple.dynamics import (abelian_freeness_check, dynamics_simplicity_check,
                                 faithful_minimal_check)
from skewsimple.skew import commuting_witness_outside_A, is_simple, skew_center
from skewsimple.suite import SWEEPS, run_randomized_suite

from conftest import conj_f2_context, conj_f3_context, natural_s3_context, swap_context
from naive import is_field


@contextmanager
def criterion(number: int, summary: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL ({time.perf_counter() - start:.2f}s) {summary}")
        raise
    print(f"ACCEPTANCE {number}: PASS ({time.perf_counter() - start:.2f}s) {summary}")


@pytest.fixture(scope="module")
def randomized_suite():
    return run_randomized_suite(seed=20260810, count=200)


def test_criterion_1_swap_instance():
    with criterion(1, "2-point swap algebra: oracle and abelian criterion agree"):
        start = time.perf_counter()
        ctx = swap_context()
        assert ctx.size == 16
        verdict = is_simple(ctx)
        assert verdict.value is True
        report = abelian_simplicity_check(InstanceEvaluation(ctx))
        assert report.verdicts["g_simple_and_center_field"].value is True
        assert report.conclusions["abelian_equivalence"] is True
        assert not report.violations
        assert time.perf_counter() - start < 1.0


def test_criterion_2_order_four_conjugation_over_f3(monkeypatch):
    with criterion(2, "2x2 matrices over F3 with order-4 conjugation: centre is a "
                      "9-element field, ring simple by certificate and by full sweep"):
        start = time.perf_counter()
        ctx = conj_f3_context()
        M = (0, 1, 2, 0)
        ring = ctx.ring
        centre = skew_center(ctx)
        assert len(centre) == 9
        scalars = {(c, 0, 0, c) for c in range(3)}
        scalar_multiples_of_M = {ring.mul(s, M) for s in scalars}
        for z in centre:
            assert z.coeffs.get(0, ring.zero) in scalars | {ring.zero}
            assert z.coeffs.get(1, ring.zero) in scalar_multiples_of_M | {ring.zero}
        assert is_field(centre, zero=ctx.zero, one=ctx.one)
        # the centre F_9 has F_3-dimension 2: certified at a theta of nullity 2
        verdict = is_simple(ctx)
        assert (verdict.value, verdict.method) == (True, "certificate")
        with monkeypatch.context() as patch:
            patch.setattr(skew, "certify_simple", lambda ctx: False)
            verdict = skew._sweep_prime(conj_f3_context())
        assert (verdict.value, verdict.method) == (True, "full_sweep")
        report = abelian_simplicity_check(InstanceEvaluation(ctx))
        assert report.conclusions["abelian_equivalence"] is True
        assert time.perf_counter() - start < 300.0


def test_criterion_3_characteristic_two_contrast():
    with criterion(3, "2x2 matrices over F2 with swap conjugation: nilpotent "
                      "central element, centre not a field, ring not simple"):
        start = time.perf_counter()
        ctx = conj_f2_context()
        M = (0, 1, 1, 0)
        centre = skew_center(ctx)
        target = ctx.one + ctx.monomial(M, 1)
        assert target in set(centre)
        assert not any(target * z == ctx.one for z in centre)  # a non-unit
        assert not is_field(centre, zero=ctx.zero, one=ctx.one)
        verdict = is_simple(ctx)
        assert verdict.value is False
        assert verdict.witness is not None
        ideal = verdict.witness_ideal
        assert not ideal.is_full and ideal.contains(verdict.witness)
        assert time.perf_counter() - start < 300.0


def test_criterion_4_nonabelian_converse_failure():
    with criterion(4, "3-point natural symmetric action: injectivity and "
                      "minimality without simplicity; fixed-point indicator "
                      "commuting witness; non-simplicity by support-2 search"):
        start = time.perf_counter()
        ctx = natural_s3_context()
        ev = InstanceEvaluation(ctx)
        assert bool(ev.g_simplicity.value) and ev.sigma_injective  # (iv)
        witness = commuting_witness_outside_A(ctx)
        assert witness is not None
        assert ev.max_commutative is False
        g = next(iter(witness.support))
        perm = ctx.group.permutations[g]
        payload = witness.coeffs[g]
        assert all((payload[x] != 0) <= (perm[x] == x) for x in range(3))
        verdict = ev.simplicity
        assert verdict.value is False and verdict.method == "witness_search"
        assert len(verdict.witness.support) <= 2
        assert verdict.witness_ideal.basis.rank < ctx.dim
        assert time.perf_counter() - start < 300.0


def test_criterion_5_randomized_sweeps(randomized_suite):
    with criterion(5, "eight randomized equivalence sweeps, 200 instances each, "
                      "zero violations"):
        assert set(SWEEPS) >= {"necessary_conditions", "abelian_simplicity",
                               "abelian_commutative_simplicity", "commutative_simplicity",
                               "outer_simplicity", "centralizer_kernel",
                               "center_containment", "center_structure"}
        for sweep in randomized_suite["sweeps"]:
            assert sweep["instances"] == 200, sweep["name"]
        assert randomized_suite["violations"] == []
        total = sum(s["seconds"] for s in randomized_suite["sweeps"])
        assert total < 600.0


def test_criterion_6_constructive_procedures(randomized_suite):
    with criterion(6, "support reduction and central witnesses satisfy their "
                      "postconditions on every suite ideal"):
        constructive = sum(s["constructive_checks"] for s in randomized_suite["sweeps"])
        assert constructive > 100  # plenty of qualifying ideals were exercised
        assert not any("constructive" in v for v in randomized_suite["violations"])


def test_criterion_7_dynamics_suite(dynamics_catalogue):
    with criterion(7, "dynamics catalogue: classification equivalences, the "
                      "five-way equivalence suite, and abelian freeness"):
        start = time.perf_counter()
        abelian_minimal_faithful = 0
        for T in dynamics_catalogue:
            fm = faithful_minimal_check(T)
            assert not fm.violations, T.name
            ds = dynamics_simplicity_check(T)
            assert ds.conclusions["injective_iff_minimal_faithful"] is True, T.name
            assert not ds.violations, T.name
            # simplicity is decided everywhere, so the full equivalence holds
            assert ds.verdicts["simple"].value is not None, T.name
            assert ds.conclusions["simple_iff_max_commutative"] is True, T.name
            assert ds.conclusions["simple_implies_rest"] is True, T.name
            if T.group.is_abelian:
                assert ds.conclusions["abelian_all_equivalent"] is True, T.name
                fr = abelian_freeness_check(T)
                assert not fr.violations, T.name
                if T.is_minimal() and T.is_faithful():
                    abelian_minimal_faithful += 1
                    assert T.is_free(), T.name
        assert abelian_minimal_faithful >= 5
        assert time.perf_counter() - start < 300.0


def test_criterion_8_centre_structure_everywhere(randomized_suite, dynamics_catalogue):
    with criterion(8, "central coefficient laws and exact augmentation "
                      "multiplicativity on every instance"):
        sweep = next(s for s in randomized_suite["sweeps"]
                     if s["name"] == "center_structure")
        assert sweep["instances"] == 200
        assert not sweep["violations"]
        contexts = [make() for make in (swap_context, conj_f3_context, conj_f2_context,
                                        natural_s3_context)]
        contexts += [T.context for T in dynamics_catalogue]
        for ctx in contexts:
            report = center_structure_check(ctx)
            assert report.conclusions["center_coefficient_laws"] is True
            assert report.conclusions["augmentation_multiplicativity_exact"] is True
            assert not report.violations
