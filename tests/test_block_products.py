"""R's batched product, the sweep's orbit images, the F_2 dual engine and the
field obstructions of both centres, read off A's structure constants, the
sigma stack and G's table, against their dense references: on the
catalogue, the five fixtures and ``InstanceSampler(0, 4096).draw_many(200)``.
"""

import random
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from skewsimple import closure, skew
from skewsimple.closure import ClosureEngine
from skewsimple.skew import left_multiplication

from conftest import stack_reference_contexts
from naive import naive_dense_field_obstruction, naive_orbit_transforms


@lru_cache(maxsize=1)
def _contexts() -> tuple:
    return tuple(stack_reference_contexts())


def _rows(rng: random.Random, n: int, count: int, dim: int) -> np.ndarray:
    return np.array([[rng.randrange(n) for _ in range(dim)] for _ in range(count)],
                    dtype=np.int64).reshape(count, dim)


@settings(max_examples=300)
@given(st.integers(0, 224), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_batched_product_matches_element_products(index, count, seed):
    # x y for each pair of rows equals SkewElement.__mul__ and the dense
    # L_x y; A's product equals RingSpec.mul on payloads
    ctx = _contexts()[index]
    n, dim, ring = ctx.char, ctx.dim, ctx.ring
    rng = random.Random(seed)
    xs, ys = _rows(rng, n, count, dim), _rows(rng, n, count, dim)
    out = ctx.products(xs, ys)
    assert out.dtype == np.int64 and out.shape == (count, dim)
    for x, y, xy in zip(xs, ys, out):
        assert tuple(xy) == ctx.vec_of(ctx.element_of_vec(x) * ctx.element_of_vec(y))
        assert np.array_equal(xy, (left_multiplication(ctx, x) @ y) % n)
    a, b = _rows(rng, n, count, ring.dim), _rows(rng, n, count, ring.dim)
    for x, y, xy in zip(a, b, ring.products(a, b)):
        assert tuple(xy) == ring.to_vec(ring.mul(ring.from_vec(x), ring.from_vec(y)))


def test_products_in_chunks_match_one_chunk(monkeypatch):
    # one row at a time (CHUNK_BYTES patched to 1) gives the same rows
    rng = random.Random(25)
    contexts = _contexts()
    expected = []
    for ctx in contexts:
        xs, ys = _rows(rng, ctx.char, 3, ctx.dim), _rows(rng, ctx.char, 3, ctx.dim)
        a, b = _rows(rng, ctx.char, 3, ctx.ring.dim), _rows(rng, ctx.char, 3, ctx.ring.dim)
        expected.append((xs, ys, a, b, ctx.products(xs, ys), ctx.ring.products(a, b)))
    monkeypatch.setattr(closure, "CHUNK_BYTES", 1)
    for ctx, (xs, ys, a, b, both, ring_rows) in zip(contexts, expected):
        assert np.array_equal(ctx.products(xs, ys), both), ctx
        assert np.array_equal(ctx.ring.products(a, b), ring_rows), ctx


def test_orbit_images_match_the_dense_transforms():
    # every in-cap context, where the sweep marks orbits: row for row, and
    # on the unit vectors every entry of every transform
    rng = np.random.default_rng(25)
    checked = 0
    for ctx in _contexts():
        if ctx.size > ctx.caps.enumeration:
            continue
        transforms = naive_orbit_transforms(ctx)
        units = np.stack([skew._orbit_images(ctx, e)
                          for e in np.eye(ctx.dim, dtype=np.int64)], axis=-1)
        assert np.array_equal(units, transforms.reshape(-1, ctx.dim, ctx.dim)), ctx
        for vec in rng.integers(0, ctx.char, size=(3, ctx.dim)):
            expected = ((transforms @ vec) % ctx.char).reshape(-1, ctx.dim)
            assert np.array_equal(skew._orbit_images(ctx, vec), expected), ctx
        checked += 1
    assert checked == 216


def test_dual_engine_matches_the_transposed_stack(monkeypatch):
    # over F_2 the packed columns of engine.T are those of the engine of the
    # transposed stack, also when transposed one operator at a time; over
    # every modulus its closures are that engine's
    rng = np.random.default_rng(26)
    f2 = 0
    for ctx in _contexts():
        n, dim, stack = ctx.char, ctx.dim, ctx.ideal_operator_matrices
        reference = ClosureEngine(n, dim, stack.T)
        dual = ctx.engine.T
        if n == 2:
            f2 += 1
            assert dual._columns == reference._columns, ctx
        seeds = [[np.eye(dim, dtype=np.int64)[0]], list(rng.integers(0, n, size=(1, dim)))]
        for seed in seeds:
            basis, expected = dual.closure(seed), reference.closure(seed)
            assert (basis.key(), basis.pivots, basis.divs) == (
                expected.key(), expected.pivots, expected.divs), ctx
    assert f2 == 141
    monkeypatch.setattr(closure, "CHUNK_BYTES", 1)
    for ctx in _contexts()[:40]:
        if ctx.char == 2:
            stack = ctx.ideal_operator_matrices
            assert (ClosureEngine(2, ctx.dim, stack).T._columns
                    == ClosureEngine(2, ctx.dim, stack.T)._columns), ctx


def test_field_obstructions_match_the_dense_reference():
    # the centre of R and the fixed centre Z(A)^G: the same obstruction
    # vector, or None, as the field test on dense left multiplications
    obstructed = 0
    for ctx in _contexts():
        one = np.array(ctx.vec_of(ctx.one), dtype=np.int64)
        expected = naive_dense_field_obstruction(
            ctx.char, ctx.center_basis.rows, one, lambda z: left_multiplication(ctx, z))
        z = ctx.center_obstruction
        assert (z is None) == (expected is None), ctx
        if z is not None:
            obstructed += 1
            assert ctx.vec_of(z) == tuple(expected.tolist()), ctx
        ring, action = ctx.ring, ctx.action
        d = ring.dim
        lefts = ring.structure_constants[0].reshape(d, d * d)
        fixed, obstruction = action.fixed_center
        expected = naive_dense_field_obstruction(
            ring.char, fixed.rows, np.array(ring.to_vec(ring.one), dtype=np.int64),
            lambda z: (z @ lefts).reshape(d, d) % ring.char)
        assert (obstruction is None) == (expected is None), ctx
        if obstruction is not None:
            assert obstruction.tolist() == expected.tolist(), ctx
    assert obstructed == 209


def test_batched_product_is_exact_past_float64():
    # Z/p x| G with dim*(p-1)^2 past 2^53 takes the int64 branch: sums of dim
    # terms below 2^63, so the products are still those of the elements
    from skewsimple import GroupTable, ModularRing
    from skewsimple.actions import trivial_action
    from skewsimple.skew import SkewContext

    rng = random.Random(27)
    for p, orders in ((100000007, [3]), (100000007, [2, 2]), (2147483647, [2])):
        group, ring = GroupTable.cyclic_product(orders), ModularRing(p)
        ctx = SkewContext(ring, group, trivial_action(group, ring))
        assert ctx.dim * (p - 1) ** 2 >= closure.FLOAT64_EXACT
        xs, ys = _rows(rng, p, 4, ctx.dim), _rows(rng, p, 4, ctx.dim)
        for x, y, xy in zip(xs, ys, ctx.products(xs, ys)):
            assert tuple(xy) == ctx.vec_of(ctx.element_of_vec(x) * ctx.element_of_vec(y))
