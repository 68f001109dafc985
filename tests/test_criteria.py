import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from skewsimple import DomainError, PreconditionError, closure
from skewsimple.criteria import (InstanceSampler, abelian_simplicity_check,
                                 center_containment_check, center_structure_check,
                                 centralizer_kernel_check, commutative_simplicity_check,
                                 field_obstruction, necessary_conditions,
                                 outer_simplicity_check)

from conftest import (conj_f2_context, conj_f3_context, swap_context,
                      trivial_f2_z2_context, two_two_cycles_context)
from naive import naive_field_obstruction, naive_has_inverse, naive_least_root


def test_necessary_conditions_simple_instance(swap_ctx):
    report = necessary_conditions(swap_ctx)
    assert report.verdicts["center_is_field"].value
    assert report.verdicts["g_simple"].value
    assert report.verdicts["sigma_injective"].value
    assert report.conclusions["simple_implies_necessary"] is True
    assert not report.violations


def test_necessary_conditions_trivial_action():
    report = necessary_conditions(trivial_f2_z2_context())
    assert report.verdicts["sigma_injective"].value is False
    assert report.verdicts["sigma_injective"].witness == {"group_element": "1"}
    assert report.conclusions["simple_implies_necessary"] is True  # vacuous


def test_necessary_conditions_inner_simple(conj_f3_ctx):
    # simple with an inner (non-outer) action: injectivity is what is forced
    report = necessary_conditions(conj_f3_ctx)
    assert report.verdicts["simple"].value is True
    assert report.conclusions["simple_implies_necessary"] is True


def test_abelian_simplicity_on_catalogue():
    for make, expect_simple in [(swap_context, True), (conj_f3_context, True),
                                (conj_f2_context, False), (trivial_f2_z2_context, False),
                                (two_two_cycles_context, False)]:
        report = abelian_simplicity_check(make())
        assert report.verdicts["simple"].value is expect_simple
        assert not report.violations, make.__name__


def test_the_benchmark_facing_names_return_the_context():
    # ``bench/workloads.py`` reads the cached facts through these two names
    from skewsimple import criteria
    from skewsimple.dynamics import catalogue
    T = catalogue()[0]
    assert criteria.InstanceEvaluation(T.context) is T.context
    assert T.evaluation is T.context


def test_abelian_simplicity_s3_exhibits_converse_failure(s3_ctx):
    report = abelian_simplicity_check(s3_ctx)
    assert report.verdicts["simple"].value is False
    assert report.verdicts["g_simple_and_injective"].value is True
    assert report.conclusions["abelian_equivalence"] is None  # not abelian
    assert not report.violations
    assert any("converse" in note or "non-abelian" in note for note in report.notes)


def test_commutative_simplicity_examples(swap_ctx, s3_ctx):
    report = commutative_simplicity_check(swap_ctx)
    assert report.conclusions["commutative_equivalence"] is True
    assert report.verdicts["max_commutative"].value

    report = commutative_simplicity_check(s3_ctx)
    assert report.verdicts["simple"].value is False
    assert report.verdicts["max_commutative"].value is False
    assert report.verdicts["max_commutative"].witness is not None
    assert report.conclusions["commutative_equivalence"] is True

    report = commutative_simplicity_check(two_two_cycles_context())
    assert report.verdicts["g_simple"].value is False
    assert report.conclusions["commutative_equivalence"] is True


def test_commutative_simplicity_rejects_matrix_ring(conj_f3_ctx):
    with pytest.raises(DomainError):
        commutative_simplicity_check(conj_f3_ctx)


def test_outer_simplicity_examples(swap_ctx):
    report = outer_simplicity_check(swap_ctx)
    assert report.conclusions["outer_equivalence"] is True

    report = outer_simplicity_check(two_two_cycles_context())
    assert report.verdicts["simple"].value is False
    assert report.verdicts["g_simple"].value is False
    assert report.conclusions["outer_equivalence"] is True


def test_outer_simplicity_preconditions(conj_f3_ctx, s3_ctx):
    with pytest.raises(PreconditionError) as err:
        outer_simplicity_check(conj_f3_ctx)
    assert "outer" in str(err.value)
    with pytest.raises(PreconditionError) as err:
        outer_simplicity_check(s3_ctx)
    assert "abelian" in str(err.value)


def test_center_containment_swap(swap_ctx):
    report = center_containment_check(swap_ctx)
    assert report.verdicts["center_in_identity_component"].value
    assert report.verdicts["center_equals_fixed_central"].value
    assert report.conclusions["containment_equivalence"] is True
    assert report.conclusions["containment_gives_field"] is True


def test_center_containment_fails_for_inner_case(conj_f3_ctx):
    # the centre meets a non-identity component, yet is still a field
    report = center_containment_check(conj_f3_ctx)
    assert report.verdicts["center_in_identity_component"].value is False
    assert report.verdicts["center_equals_fixed_central"].value is False
    assert report.verdicts["center_is_field"].value is True
    assert report.conclusions["containment_equivalence"] is True
    assert report.conclusions["containment_gives_field"] is None
    assert any("orderable" in n for n in report.notes)


def test_center_containment_trivial_group():
    from skewsimple import GroupTable, ModularRing
    from skewsimple.actions import trivial_action
    from skewsimple.skew import SkewContext
    ring = ModularRing(6)
    grp = GroupTable.cyclic_product([1])
    ctx = SkewContext(ring, grp, trivial_action(grp, ring))
    report = center_containment_check(ctx)
    assert report.verdicts["center_in_identity_component"].value
    assert report.verdicts["center_equals_fixed_central"].value
    assert report.conclusions["containment_equivalence"] is True


def test_centralizer_kernel_check_applies_and_skips():
    report = centralizer_kernel_check(swap_context())
    assert report.conclusions["centralizer_matches_kernel"] is True

    report = centralizer_kernel_check(conj_f3_context())
    assert report.conclusions["centralizer_matches_kernel"] is None  # A not commutative

    report = centralizer_kernel_check(two_two_cycles_context())
    assert report.conclusions["centralizer_matches_kernel"] is None  # not G-simple


def test_center_structure_check_instances(swap_ctx, conj_f3_ctx, s3_ctx):
    for ctx in (swap_ctx, conj_f3_ctx):
        report = center_structure_check(ctx)
        assert report.conclusions["center_coefficient_laws"] is True
        assert report.conclusions["abelian_coefficients_fixed"] is True
        assert not report.violations
    report = center_structure_check(s3_ctx)
    assert report.conclusions["center_coefficient_laws"] is True
    assert report.conclusions["abelian_coefficients_fixed"] is None
    assert report.verdicts["coefficients_in_fixed_ring"].value is False
    assert not report.violations


def test_center_structure_augmentation_clause():
    report = center_structure_check(trivial_f2_z2_context())
    assert report.conclusions["augmentation_multiplicativity_exact"] is True
    assert report.verdicts["augmentation_multiplicative"].value is True
    report = center_structure_check(swap_context())
    assert report.conclusions["augmentation_multiplicativity_exact"] is True
    assert report.verdicts["augmentation_multiplicative"].value is False


def test_field_obstruction(conj_f2_ctx):
    from skewsimple.skew import is_central, skew_center
    centre = skew_center(conj_f2_ctx)
    assert naive_field_obstruction(centre, zero=conj_f2_ctx.zero, one=conj_f2_ctx.one)
    test = field_obstruction(conj_f2_ctx)
    assert not test.is_field
    bad = conj_f2_ctx.element_of_vec(test.obstruction)
    assert bad is not None and not bad.is_zero() and is_central(bad)
    assert (bad * bad).is_zero()  # a nonzero kernel of z -> z^2 gives a nilpotent
    assert not naive_has_inverse(bad, centre, one=conj_f2_ctx.one)



@given(st.sampled_from([2, 3, 5, 13, 101]), st.lists(st.integers(0, 100), max_size=4),
       st.integers(1, 9))
def test_least_root_matches_full_evaluation(p, coeffs, chunk):
    # chunks of a few points, so that the root often lies past the first
    coeffs = [c % p for c in coeffs]
    expected = naive_least_root(p, coeffs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(closure, "ROOT_CHUNK", chunk)
        if expected is None:
            with pytest.raises(ArithmeticError):
                closure._least_root(p, coeffs)
        else:
            assert closure._least_root(p, coeffs) == expected


LARGE_P_CHILD = """
import resource
from skewsimple import GroupTable, ModularRing
from skewsimple.actions import trivial_action
from skewsimple.skew import SkewContext
group = GroupTable.cyclic_product([2])
ring = ModularRing(10000019)
ctx = SkewContext(ring, group, trivial_action(group, ring))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
witness = ctx.center_obstruction.serialize()
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(witness, (after - before) // 1024)
"""


def test_least_root_memory_does_not_grow_with_p():
    # F_p[Z2] with the trivial action is its own centre, not a field: the
    # obstruction is u_1 - 1, with 1 the least root of x^2 - 1; evaluating
    # that polynomial at all of F_p at once grew peak RSS by about 300 MB
    src = Path(__file__).parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", LARGE_P_CHILD], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert result.returncode == 0, result.stderr
    witness, growth_mb = result.stdout.rsplit(" ", 1)
    assert witness == "[['0', 10000018], ['1', 1]]"
    assert int(growth_mb) < 32


def test_sampler_deterministic():
    names_a = [inst.name for inst in InstanceSampler(99).draw_many(8)]
    names_b = [inst.name for inst in InstanceSampler(99).draw_many(8)]
    assert names_a == names_b


def test_sampler_respects_size_cap():
    for inst in InstanceSampler(3, max_size=512).draw_many(12):
        assert inst.ctx.size <= 512
        assert inst.ctx.action.validate() is None


def test_sampler_predicate_filter():
    sampler = InstanceSampler(17)
    inst = sampler.draw(lambda i: not i.ctx.group.is_abelian)
    assert not inst.ctx.group.is_abelian
