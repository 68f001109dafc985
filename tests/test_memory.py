"""Peak traced memory of the ideal machinery, against stated bounds.

The multiplications by R's ring generators are held as one block-monomial
stack, O(|G| dim_A^3) entries, and no step builds their dense dim x dim
matrices. Dense stacks held 2 (dim_A + |gens|) dim^2 entries per copy, in
several copies: the engines, the dual engine and the commutators. The bounds
sit well below what the dense stacks took (4.0 MB on ``natural_S4`` and
83 MB for the regular Z16 on F_2^16, Python 3.11, numpy 2.4) and well above
what the stack takes (1.0 MB and 6.4 MB).

An engine over F_2 keeps only its packed operator columns, dim * K * dim
bits, and not the stack it packed them from, and a stack builds the second,
stacked copy of its matrices that ``apply`` multiplies with only at the
first ``apply``. On F_4^64 (128 dense operators at dim 128) the engine held
32.3 MB when it kept both and holds 0.14 MB; the F_2 dual at dim 256 held
2.5 MB and holds 0.3 MB. The stack takes one int64 copy of the operators it
is given and reduces it in place: building that engine peaked at 32.0 MB
with two copies and peaks at 17.3 MB.

A's structure constants are held once, by the ring, in the dtype of the
products taken with them (one matrix per basis element and side, the same
array for both sides of a commutative ring); R's block builders read them
through the ring. On FunctionRing(64, 4) x| Z2 the constants, one of R's
left blocks and one of A's products held 64 MiB when the ring kept two int64
copies and the context two float64 ones, and hold 16.3 MB.

The certificate's theta is built one term L_a R_b at a time, so one draw
holds one pair of dense matrices: 3.3 MB at dim 256, where stacking the
three terms' blocks took 6.4 MB. The centre's field test runs on batched
products, with no dense multiplication matrix.
"""

import tracemalloc

import numpy as np

from skewsimple import GroupTable
from skewsimple.actions import trivial_action
from skewsimple.closure import ClosureEngine
from skewsimple.dynamics import TransformationGroup, catalogue, regular_action
from skewsimple.rings import FunctionRing
from skewsimple.skew import SkewContext, certificate_draws, is_simple

MB = 1 << 20


def _held(build) -> tuple[int, int]:
    """The traced memory build's result holds once built, and the peak while
    it is built, in bytes."""
    tracemalloc.start()
    try:
        built = build()
        held, peak = tracemalloc.get_traced_memory()
        del built
        return held, peak
    finally:
        tracemalloc.stop()


def _peak(fn) -> int:
    """The peak of traced memory while fn runs, in bytes."""
    return _held(fn)[1]


def _regular_z16(q: int):
    group = GroupTable.cyclic_product([16])
    return TransformationGroup(16, group, regular_action(group), q, "regular_Z16").context


def test_an_f2_engine_of_dense_operators_holds_its_columns_only():
    # F_4^64 is A = F_2^128 with 128 dense ideal operators: 16 MB in int64
    ring = FunctionRing(64, 4)
    ops = ring.ideal_operators
    held, peak = _held(lambda: ClosureEngine(ring.char, ring.dim, ops))
    assert held < 1 * MB
    assert peak < 24 * MB


def test_the_structure_constants_are_held_once():
    # FunctionRing(64, 4) x| Z2, dim 256: A's 128 x 128^2 constants are one
    # 16 MiB array, shared by both sides, by A's product and R's blocks
    ring = FunctionRing(64, 4)
    group = GroupTable.cyclic_product([2])
    ctx = SkewContext(ring, group, trivial_action(group, ring))
    row, pair = np.ones((1, ctx.dim), dtype=np.int64), np.ones((1, ring.dim), dtype=np.int64)

    def build():
        return ring.structure_constants, ctx.left_blocks(row), ring.products(pair, pair)

    held, _ = _held(build)
    assert held < 24 * MB
    lefts, rights = ring.structure_constants
    assert lefts is rights


def test_the_f2_dual_at_dim_256_holds_its_columns_only():
    ctx = _regular_z16(2)
    ctx.ideal_operator_matrices
    held, peak = _held(lambda: ctx.dual_engine)
    assert held < 1 * MB
    assert peak < 3 * MB


def test_engines_and_centre_of_natural_s4_stay_small():
    # dim 96: S4 on F_2^4, 24 slots of dimension 4
    ctx = next(T for T in catalogue() if T.name == "natural_S4").context

    def build():
        ctx.engine, ctx.dual_engine, ctx.center_basis

    assert _peak(build) < 2 * MB


def test_simplicity_of_the_regular_z16_on_f2_16_stays_small():
    # dim 256: the oracle runs the field test, the certificate and both engines
    ctx = _regular_z16(2)
    verdict = []
    assert _peak(lambda: verdict.append(is_simple(ctx))) < 20 * MB
    assert (verdict[0].value, verdict[0].method) == (True, "certificate")


def test_one_certificate_draw_at_dim_256_stays_small():
    ctx = _regular_z16(2)
    ctx._block_operands   # built once per context
    assert _peak(lambda: next(certificate_draws(ctx))) < 4.5 * MB


def test_field_test_of_the_centre_of_natural_s4_stays_small():
    ctx = next(T for T in catalogue() if T.name == "natural_S4").context
    assert _peak(lambda: ctx.center_obstruction) < 2 * MB
