"""Peak traced memory of the ideal machinery, against stated bounds.

The multiplications by R's ring generators are held as one block-monomial
stack, O(|G| dim_A^3) entries, and no step builds their dense dim x dim
matrices. Dense stacks held 2 (dim_A + |gens|) dim^2 entries per copy, in
several copies: the engines, the dual engine and the commutators. The bounds
sit well below what the dense stacks took (4.0 MB on ``natural_S4`` and
83 MB for the regular Z16 on F_2^16, Python 3.11, numpy 2.4) and well above
what the stack takes (1.0 MB and 6.4 MB).

The certificate's theta is built one term L_a R_b at a time, so one draw
holds one pair of dense matrices: 3.3 MB at dim 256, where stacking the
three terms' blocks took 6.4 MB. The centre's field test runs on batched
products, with no dense multiplication matrix.
"""

import tracemalloc

from skewsimple import GroupTable
from skewsimple.dynamics import TransformationGroup, catalogue, regular_action
from skewsimple.skew import certificate_draws, is_simple

MB = 1 << 20


def _peak(fn) -> int:
    """The peak of traced memory while fn runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_engines_and_centre_of_natural_s4_stay_small():
    # dim 96: S4 on F_2^4, 24 slots of dimension 4
    ctx = next(T for T in catalogue() if T.name == "natural_S4").context

    def build():
        ctx.engine, ctx.dual_engine, ctx.center_basis

    assert _peak(build) < 2 * MB


def test_simplicity_of_the_regular_z16_on_f2_16_stays_small():
    # dim 256: the oracle runs the field test, the certificate and both engines
    group = GroupTable.cyclic_product([16])
    ctx = TransformationGroup(16, group, regular_action(group), 2, "regular_Z16").context
    verdict = []
    assert _peak(lambda: verdict.append(is_simple(ctx))) < 20 * MB
    assert (verdict[0].value, verdict[0].method) == (True, "certificate")


def test_one_certificate_draw_at_dim_256_stays_small():
    group = GroupTable.cyclic_product([16])
    ctx = TransformationGroup(16, group, regular_action(group), 2, "regular_Z16").context
    ctx.structure_constants, ctx._block_sources   # built once per context
    assert _peak(lambda: next(certificate_draws(ctx))) < 4.5 * MB


def test_field_test_of_the_centre_of_natural_s4_stays_small():
    ctx = next(T for T in catalogue() if T.name == "natural_S4").context
    assert _peak(lambda: ctx.center_obstruction) < 2 * MB
