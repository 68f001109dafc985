import itertools
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skewsimple import CapacityError, closure
from skewsimple.closure import (FLOAT64_EXACT, BitBasis, BlockMonomialStack, ClosureEngine,
                                HowellBasis, _minimal_polynomial, kernel_basis, kernel_rows,
                                solve)

from naive import (NaiveHowell, abelian_span, naive_closure, naive_dense_stack,
                   naive_gauss_solve, naive_span_members, tuple_add_mod)


def test_abelian_span_plain_subgroup():
    add = tuple_add_mod(12)
    span = abelian_span([(4,)], [], add, (0,))
    assert span == {(0,), (4,), (8,)}
    span = abelian_span([(4,), (6,)], [], add, (0,))
    assert span == {(0,), (2,), (4,), (6,), (8,), (10,)}


def test_abelian_span_with_operator():
    # doubling operator over Z/5 turns {1} into everything
    add = tuple_add_mod(5)
    double = lambda v: ((2 * v[0]) % 5,)
    span = abelian_span([(1,)], [double], add, (0,))
    assert span == {(x,) for x in range(5)}


@given(st.integers(2, 9), st.lists(st.integers(0, 8), min_size=1, max_size=4))
def test_abelian_span_is_a_subgroup(n, seeds):
    add = tuple_add_mod(n)
    span = abelian_span([(s % n,) for s in seeds], [], add, (0,))
    assert (0,) in span
    for u in span:
        for v in span:
            assert add(u, v) in span
        assert ((-u[0]) % n,) in span


def test_prime_engine_matches_set_span():
    # operator closure over F_3 in dimension 3, cross-checked elementwise
    p, dim = 3, 3
    shift = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    engine = ClosureEngine(p, dim, [shift])
    basis = engine.closure([(1, 0, 0)])
    add = tuple_add_mod(p)
    op = lambda v: tuple(int(x) for x in (shift @ np.array(v)) % p)
    span = abelian_span([(1, 0, 0)], [op], add, (0, 0, 0))
    assert {tuple(v) for v in basis.iter_vectors()} == span


def test_prime_engine_rank_and_membership():
    engine = ClosureEngine(2, 4, [])
    basis = engine.closure([(1, 1, 0, 0), (0, 0, 1, 1)])
    assert basis.rank == 2
    assert basis.size == 4
    assert basis.contains((1, 1, 1, 1))
    assert not basis.contains((1, 0, 0, 0))
    assert not basis.is_full


def test_prime_engine_canonical_rref():
    engine = ClosureEngine(5, 3, [])
    a = engine.closure([(2, 1, 0), (0, 0, 3)])
    b = engine.closure([(4, 2, 3), (0, 0, 1), (2, 1, 3)])
    assert a.key() == b.key()  # same subspace, same canonical basis


def test_composite_engine_howell_form():
    # over Z/12 the cyclic span of (4, 2) has order 6: the row (4, 2) with
    # pivot 4 plus its annihilator multiple 3*(4, 2) = (0, 6) with pivot 6
    engine = ClosureEngine(12, 2, [])
    basis = engine.closure([(4, 2)])
    assert basis.key() == ((4, 2), (0, 6))
    assert basis.divs == [4, 6]
    assert basis.size == 6
    assert len(set(basis.iter_vectors())) == basis.size
    assert basis.contains((8, 4)) and basis.contains((0, 6))
    assert not basis.contains((0, 3)) and not basis.contains((2, 1))
    # insertion order does not change the canonical form
    again = engine.closure([(0, 6), (8, 4), (4, 2)])
    assert again.key() == basis.key()


def test_composite_engine_full_needs_unit_pivots():
    engine = ClosureEngine(4, 2, [])
    half = engine.closure([(2, 0), (0, 2)])
    assert half.rank == 2 and not half.is_full and half.size == 4
    full = engine.closure([(2, 0), (1, 1), (0, 1)])
    assert full.is_full and full.size == 16


def _matrix(n, dim, entries):
    return np.array(entries[:dim * dim], dtype=np.int64).reshape(dim, dim) % n


@st.composite
def closure_problems(draw):
    n = draw(st.integers(2, 12))
    dim = draw(st.integers(1, 3))
    entry = st.integers(0, n - 1)
    ops = draw(st.lists(st.lists(entry, min_size=dim * dim, max_size=dim * dim),
                        max_size=2))
    seeds = draw(st.lists(st.tuples(*[entry] * dim), max_size=3))
    return n, dim, [_matrix(n, dim, op) for op in ops], seeds


@settings(max_examples=150)
@given(closure_problems())
def test_engine_matches_naive_span(problem):
    n, dim, ops, seeds = problem
    basis = ClosureEngine(n, dim, ops).closure(seeds)
    maps = [lambda v, m=m: tuple(int(x) for x in (m @ np.array(v)) % n) for m in ops]
    span = abelian_span(seeds, maps, tuple_add_mod(n), (0,) * dim)
    members = list(basis.iter_vectors())
    assert len(members) == len(set(members)) == basis.size == len(span)
    assert set(members) == span
    assert basis.is_full == (len(span) == n**dim)
    for v in itertools.product(range(n), repeat=dim):
        assert basis.contains(v) == (v in span)



@st.composite
def insertion_problems(draw):
    n = draw(st.sampled_from([2, 3, 5, 7, 12, 36]))
    dim = draw(st.integers(1, 5))
    entry = st.integers(0, n - 1)
    vecs = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=6))
    probes = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=4))
    return n, dim, vecs, probes


def _assert_same_basis(basis, ref):
    assert basis.key() == ref.key()
    assert basis.pivots == ref.pivots and basis.divs == ref.divs
    assert basis.size == ref.size and basis.is_full == ref.is_full
    assert basis.rank == len(ref.rows)


# over Z/12: a unit row, then a non-unit pivot (4) that switches to the
# sequential steps, then a Bezout merge at that pivot (gcd(4, 3) = 1) that
# brings the non-unit count back to 0, then unit rows again
UNIT_NONUNIT_BEZOUT = (12, 3, [[1, 2, 3], [0, 4, 0], [0, 3, 0], [0, 0, 7], [5, 1, 1]],
                       [[1, 2, 3], [0, 1, 0], [6, 6, 6]])


@settings(max_examples=300)
@given(insertion_problems())
@example(UNIT_NONUNIT_BEZOUT)
@example((36, 2, [[9, 3], [0, 12], [4, 1], [0, 18]], [[0, 6], [27, 9]]))
def test_basis_matches_reference_insertion(problem):
    n, dim, vecs, probes = problem
    basis, ref = HowellBasis(n, dim), NaiveHowell(n, dim)
    for vec in vecs:
        v = np.array(vec, dtype=np.int64)
        assert basis.insert(v.copy()) == ref.insert(v.copy())
        _assert_same_basis(basis, ref)
    for probe in vecs + probes:
        assert basis.contains(probe) == ref.contains(probe)


# dimensions at the byte and 64-bit word edges of the packed F_2 rows
BIT_DIMS = [1, 7, 8, 9, 63, 64, 65, 128]


def _bits(x: int, dim: int) -> np.ndarray:
    return np.array([(x >> j) & 1 for j in range(dim)], dtype=np.int64)


@st.composite
def f2_problems(draw):
    """Vectors of F_2^dim as XORs of a few random atoms, so that many of them
    depend on the ones before; probes likewise, plus one random vector."""
    dim = draw(st.sampled_from(BIT_DIMS))
    word = st.integers(0, 2**dim - 1)
    atoms = draw(st.lists(word, min_size=1, max_size=5))
    subset = st.lists(st.sampled_from(atoms), max_size=4)

    def combine(parts):
        out = 0
        for part in parts:
            out ^= part
        return out

    vecs = [combine(parts) for parts in draw(st.lists(subset, max_size=7))]
    probes = [combine(parts) for parts in draw(st.lists(subset, max_size=3))] + [draw(word)]
    return dim, vecs, probes, combine(draw(subset)) ^ draw(st.sampled_from([0, 1, 2**dim - 1]))


@settings(max_examples=200)
@given(f2_problems())
def test_f2_basis_matches_reference_insertion(problem):
    dim, vecs, probes, extra = problem
    basis, ref = HowellBasis(2, dim), NaiveHowell(2, dim)
    assert isinstance(basis, BitBasis)
    for x in vecs:
        v = _bits(x, dim)
        assert basis.insert(v.copy()) == ref.insert(v.copy())
        _assert_same_basis(basis, ref)
    for x in vecs + probes:
        assert basis.contains(_bits(x, dim)) == ref.contains(_bits(x, dim))
    assert [row.tolist() for row in basis.rows] == [row.tolist() for row in ref.rows]
    # a basis made from given rows takes further rows
    loaded = HowellBasis.from_rows(2, dim, ref.rows, ref.pivots, ref.divs)
    assert isinstance(loaded, BitBasis)
    _assert_same_basis(loaded, ref)
    v = _bits(extra, dim)
    assert loaded.insert(v.copy()) == ref.insert(v.copy())
    _assert_same_basis(loaded, ref)
    assert loaded.contains(v)


def test_only_modulus_2_takes_the_packed_rows():
    for n in (3, 4, 6, 8):
        assert type(HowellBasis(n, 5)) is HowellBasis
        assert type(HowellBasis.from_rows(n, 2, np.eye(2, dtype=np.int64), [0, 1], [1, 1])) \
            is HowellBasis
    assert type(ClosureEngine(4, 2, []).closure([(1, 0)])) is HowellBasis
    assert type(ClosureEngine(2, 2, []).closure([(1, 0)])) is BitBasis


def test_f2_members_come_in_the_order_of_the_int64_block():
    # iter_chunks, sorted_members and key read the block unpacked from the
    # ints; it is rebuilt after each insert
    basis = HowellBasis(2, 9)
    basis.insert(_bits(0b101000011, 9))
    first = basis.key()
    basis.insert(_bits(0b000100001, 9))
    assert basis.key() != first and len(basis.key()) == 2
    members = list(basis.iter_vectors())
    assert members == [(0,) * 9, tuple(basis.rows[1]), tuple(basis.rows[0]),
                       tuple((basis.rows[0] + basis.rows[1]) % 2)]
    ordered = basis.sorted_members(np.arange(9), 16, "test")
    assert [tuple(v) for v in ordered.tolist()] == sorted(members)


# a modulus whose chunk products, at most rank*(n-1)^2, pass 2^53 from rank 1
# on, so that ``iter_chunks`` takes them in int64; its spans are drawn from
# multiples of n/6 and stay small
_WIDE_N = 6 * 2**25


@st.composite
def enumeration_problems(draw):
    n = draw(st.sampled_from([2, 3, 4, 6, 9, 251, _WIDE_N]))
    dim = draw(st.integers(1, 4))
    scale = n // 6 if n == _WIDE_N else 1
    entry = st.integers(0, (n - 1) // scale).map(lambda x: x * scale)
    seeds = draw(st.lists(st.tuples(*[entry] * dim), max_size=1 if n == 251 else 3))
    chunk_bytes = draw(st.sampled_from([8, 96, 512, closure.CHUNK_BYTES]))
    return n, dim, seeds, chunk_bytes


@settings(max_examples=300)
@given(enumeration_problems())
@example((_WIDE_N, 3, [(_WIDE_N // 6, 0, _WIDE_N // 2), (0, _WIDE_N // 3, 0)], 96))
@example((251, 2, [(3, 250)], 96))
def test_iter_chunks_enumerate_the_coefficient_product(problem):
    # the members, their order and the chunk boundaries against the
    # coefficient vectors listed by itertools.product, summed in Python ints
    n, dim, seeds, chunk_bytes = problem
    basis = HowellBasis(n, dim)   # inside check_int64 for every drawn n
    for seed in seeds:
        basis.insert(np.array(seed, dtype=np.int64))
    if n == _WIDE_N and basis.rank:
        assert basis.rank * (n - 1) ** 2 >= FLOAT64_EXACT
    members = naive_span_members(basis)
    step = max(1, chunk_bytes // (8 * (basis.rank + dim)))
    with patch.object(closure, "CHUNK_BYTES", chunk_bytes):
        chunks = list(basis.iter_chunks())
    assert all(chunk.dtype == np.int64 for chunk in chunks)
    assert [list(map(tuple, chunk.tolist())) for chunk in chunks] == \
        [members[i:i + step] for i in range(0, len(members), step)]


@st.composite
def f2_kernel_problems(draw):
    split = draw(st.sampled_from([0, 1, 7, 8, 9, 64, 65]))
    dim = draw(st.sampled_from(BIT_DIMS))
    count = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    return split, dim, count, seed


@settings(max_examples=100)
@given(f2_kernel_problems())
def test_f2_kernel_matches_reference_graph(problem):
    # the kernel is the graph's rows with pivots in the second half, here
    # from the reference basis fed the same graph rows
    split, dim, count, seed = problem
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, size=(count, dim))
    if count > 1:
        rows[-1] = (rows[0] + rows[1]) % 2   # a dependent row
    images = (rows @ rng.integers(0, 2, size=(dim, split))) % 2
    kernel = kernel_basis(2, rows, images)
    assert isinstance(kernel, BitBasis)
    graph = NaiveHowell(2, split + dim)
    for vec in np.concatenate([images, rows], axis=1):
        graph.insert(vec)
    ref = NaiveHowell(2, dim)
    for row, piv in zip(graph.rows, graph.pivots):
        if piv >= split:
            ref.insert(row[split:])
    _assert_same_basis(kernel, ref)
    if dim <= 9:
        span = abelian_span([tuple(int(x) for x in r) for r in rows], [],
                            tuple_add_mod(2), (0,) * dim)
        brute = {v for v in span
                 if not np.count_nonzero(_image_of(rows, images, np.array(v)))}
        assert set(kernel.iter_vectors()) == brute


def _image_of(rows, images, v):
    """The image of v in the span of the rows, from any expansion over them."""
    for coeffs in itertools.product(range(2), repeat=len(rows)):
        if not ((np.array(coeffs) @ rows - v) % 2).any():
            return (np.array(coeffs) @ images) % 2
    raise AssertionError("not in the span")


@st.composite
def f2_closure_problems(draw):
    dim = draw(st.sampled_from(BIT_DIMS[:6]))
    seed = draw(st.integers(0, 2**32 - 1))
    n_ops = draw(st.integers(0, 3))
    n_seeds = draw(st.integers(0, 3))
    density = draw(st.sampled_from([0.05, 0.3, 0.5]))
    return dim, seed, n_ops, n_seeds, density


@settings(max_examples=100)
@given(f2_closure_problems())
def test_f2_engine_matches_reference_closure_in_insertion_order(problem):
    dim, seed, n_ops, n_seeds, density = problem
    rng = np.random.default_rng(seed)
    ops = [(rng.random((dim, dim)) < density).astype(np.int64) for _ in range(n_ops)]
    seeds = [(rng.random(dim) < density).astype(np.int64) for _ in range(n_seeds)]
    offered, ref_offered = [], []
    insert_bits, ref_insert = BitBasis._insert_bits, NaiveHowell.insert

    def spy(basis, v):
        offered.append(tuple(_bits(v, dim).tolist()))
        return insert_bits(basis, v)

    def ref_spy(basis, vec):
        ref_offered.append(tuple(int(x) for x in vec))
        return ref_insert(basis, vec)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BitBasis, "_insert_bits", spy)
        patch.setattr(NaiveHowell, "insert", ref_spy)
        basis = ClosureEngine(2, dim, ops).closure(seeds)
        ref = naive_closure(2, dim, ops, seeds)
    _assert_same_basis(basis, ref)
    # the same vectors were popped, in the same order
    assert offered == ref_offered


def test_bezout_example_passes_through_both_paths():
    # the example above does reach a non-unit pivot after a unit row, and the
    # merge that leaves no non-unit pivot
    n, dim, vecs, _ = UNIT_NONUNIT_BEZOUT
    ref = NaiveHowell(n, dim)
    counts = []
    for vec in vecs:
        ref.insert(np.array(vec, dtype=np.int64))
        counts.append(ref._nonunit)
    assert counts[:3] == [0, 1, 0] and ref.divs == [1, 1, 1]


def test_kernel_basis_matches_reference_insertion():
    # the kernel's rows, taken over from the graph, insert into the reference
    # to the same form
    rng = np.random.default_rng(7)
    for n in (5, 12, 36):
        for _ in range(10):
            rows = rng.integers(0, n, size=(3, 4))
            images = (rows @ rng.integers(0, n, size=(4, 2))) % n
            kernel = kernel_basis(n, rows, images)
            ref = NaiveHowell(n, 4)
            for row in kernel.rows:
                ref.insert(row)
            _assert_same_basis(kernel, ref)


def test_kernel_graph_reaching_its_rank_bound():
    # over Z/8 the one graph row (4, 2, 1, 0) has the Howell rows (4, 2, 1, 0),
    # (0, 4, 2, 0) and (0, 0, 4, 0): three rows, 1 * log2(8), in four columns
    kernel = kernel_basis(8, [[1, 0]], [[4, 2]])
    assert (kernel.key(), kernel.pivots, kernel.divs) == (((4, 0),), [0], [4])
    # a basis made from given rows takes further rows
    kernel.insert(np.array([2, 4], dtype=np.int64))
    ref = NaiveHowell(8, 2)
    for vec in ([4, 0], [2, 4]):
        ref.insert(np.array(vec, dtype=np.int64))
    _assert_same_basis(kernel, ref)


@pytest.mark.parametrize("n,dim", [
    (2**26, 2),          # 2*(n-1)^2 just below 2^53: the float64 product, at its limit
    (2**26 + 1, 2),      # just above: the int64 product
    (2147483647, 2),     # a prime near the int64 limit
    (2**31, 2),
])
def test_engine_matches_reference_closure_at_large_moduli(n, dim):
    rng = np.random.default_rng(n)
    top = np.full((dim, dim), n - 1, dtype=np.int64)   # the largest products
    for trial in range(6):
        ops = [top] + [rng.integers(0, n, size=(dim, dim)) for _ in range(trial % 3)]
        seeds = [np.full(dim, n - 1)] + [rng.integers(0, n, size=dim) for _ in range(trial % 2)]
        basis = ClosureEngine(n, dim, ops).closure(seeds)
        ref = naive_closure(n, dim, ops, seeds)
        assert (basis.key(), basis.pivots, basis.divs) == (ref.key(), ref.pivots, ref.divs)


def test_int64_wrap_is_refused():
    # a product of two reduced vectors of length dim reaches dim*(n-1)^2
    ClosureEngine(2147483647, 2, [])
    HowellBasis(3037000499, 1)
    for n, dim in ((2147483647, 3), (4294967311, 2), (3037000501, 1), (10**15 + 37, 1)):
        with pytest.raises(CapacityError):
            ClosureEngine(n, dim, [])
        with pytest.raises(CapacityError):
            HowellBasis(n, dim)


@st.composite
def block_stacks(draw):
    """A random stack of block-monomial operators over Z/n: per operator a
    permutation of the blocks and one matrix per block."""
    n = draw(st.integers(2, 12))
    blocks, size = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    count = draw(st.integers(0, 4))
    targets = [draw(st.permutations(range(blocks))) for _ in range(count)]
    entries = draw(st.lists(st.integers(0, 4 * n), min_size=count * blocks * size * size,
                            max_size=count * blocks * size * size))
    matrices = np.array(entries, dtype=np.int64).reshape(count, blocks, size, size)
    vecs = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * (blocks * size)),
                         min_size=1, max_size=3))
    return n, np.array(targets, dtype=np.intp).reshape(count, blocks), matrices, vecs


@given(block_stacks())
def test_block_stack_matches_its_dense_matrices(problem):
    # the stack's dense form, its transpose, its images and the closures it
    # drives against the matrices placed block by block; over F_2 the closures
    # run on the packed columns the stack's images of unit vectors give
    n, targets, matrices, vecs = problem
    stack = BlockMonomialStack(n, targets, matrices)
    dense = naive_dense_stack(stack)
    dim = stack.dim
    assert len(stack) == len(dense)
    assert np.array_equal(naive_dense_stack(stack.T), dense.transpose(0, 2, 1))
    arr = np.array(vecs, dtype=np.int64)
    assert np.array_equal(stack.apply(arr), np.einsum("kij,cj->cki", dense, arr) % n)
    assert np.array_equal(stack.apply(arr[0]), (dense @ arr[0]) % n)
    for ops, ref_ops in ((stack, dense), (stack.T, dense.transpose(0, 2, 1))):
        basis = ClosureEngine(n, dim, ops).closure(vecs)
        ref = naive_closure(n, dim, list(ref_ops), vecs)
        assert (basis.key(), basis.pivots, basis.divs) == (ref.key(), ref.pivots, ref.divs)


def test_block_stack_columns_over_f2_come_in_chunks():
    # the packed columns are the same whether the unit vectors come one per
    # chunk or all in one, and they are the columns of the dense stack
    rng = np.random.default_rng(5)
    targets = np.stack([rng.permutation(4) for _ in range(3)])
    stack = BlockMonomialStack(2, targets, rng.integers(0, 2, size=(3, 4, 3, 3)))
    whole = ClosureEngine(2, 12, stack)._columns
    with patch.object(closure, "CHUNK_BYTES", 1):
        assert ClosureEngine(2, 12, stack)._columns == whole
    assert whole == closure._pack_rows(naive_dense_stack(stack).transpose(2, 0, 1).reshape(12, -1))


def test_block_stack_refuses_what_check_int64_refuses():
    # a block product sums only `size` terms, yet the stack refuses exactly
    # the (n, dim) pairs check_int64 refuses, whatever the block size
    for n, dim in ((2147483647, 3), (4294967311, 2), (3037000501, 1), (10**15 + 37, 1)):
        for size in {1, dim}:
            shape = (0, dim // size, size, size)
            with pytest.raises(CapacityError):
                BlockMonomialStack(n, np.zeros(shape[:2], dtype=np.intp), np.zeros(shape))
    for n, dim in ((2147483647, 2), (3037000499, 1)):
        for size in {1, dim}:
            stack = BlockMonomialStack(n, np.arange(dim // size)[None],
                                       np.full((1, dim // size, size, size), n - 1))
            assert stack.dim == dim


@pytest.mark.parametrize("n,size", [
    (2**26, 2),          # 2*(n-1)^2 just below 2^53: the float64 product, at its limit
    (2**26 + 1, 2),      # just above: the int64 product
    (94906266, 1),       # (n-1)^2 just below 2^53 for blocks of one coordinate
    (94906267, 1),       # just above
    (2147483647, 1),     # blocks of one coordinate near the int64 limit
])
def test_block_products_are_exact_at_the_float64_limit(n, size):
    # the largest entries, in two blocks swapped, against Python's integers:
    # a block product is exact in float64 while size*(n-1)^2 < 2^53
    top = np.full((1, 2, size, size), n - 1, dtype=np.int64)
    stack = BlockMonomialStack(n, np.array([[1, 0]]), top)
    vec = np.full(2 * size, n - 1, dtype=np.int64)
    exact = [(size * (n - 1) ** 2) % n] * (2 * size)
    assert stack.apply(vec).tolist() == [exact]
    assert (size * (n - 1) ** 2 < FLOAT64_EXACT) == (stack._by_source.dtype == np.float64)


def test_kernel_rows_of_a_matrix():
    # over F_5, x -> M x with M of rank 2 on F_5^3
    m = np.array([[1, 2, 3], [0, 1, 4], [1, 3, 2]], dtype=np.int64)
    kernel = kernel_rows(5, np.eye(3, dtype=np.int64), m.T)
    assert len(kernel) == 1
    assert not ((m @ kernel[0]) % 5).any()
    assert kernel_rows(5, np.eye(2, dtype=np.int64), np.eye(2, dtype=np.int64)) == []


@pytest.mark.parametrize("n", range(4, 13))
def test_kernel_rows_over_z_mod_n_match_brute_force(n):
    # random maps x -> M x on the span of random rows (or on all of (Z/n)^3),
    # against the span's members with M x = 0, found one by one
    rng = np.random.default_rng(n)
    dim = 3
    divisors = [d for d in range(2, n) if n % d == 0]
    for trial in range(12):
        m = rng.integers(0, n, size=(int(rng.integers(1, 4)), dim))
        if divisors and trial % 3 == 0:
            m = m * int(rng.choice(divisors))   # a map through zero divisors
        rows = (np.eye(dim, dtype=np.int64) if trial % 2 else
                rng.integers(0, n, size=(int(rng.integers(1, 4)), dim)))
        images = (rows @ m.T) % n
        kernel = kernel_basis(n, rows, images)
        # the graph's rows are taken over as they stand: they must already be
        # the canonical form that inserting them one by one gives
        inserted = HowellBasis(n, dim)
        for row in kernel_rows(n, rows, images):
            inserted.insert(row)
        assert kernel.key() == inserted.key() and kernel.divs == inserted.divs
        span = abelian_span([tuple(int(x) for x in r) for r in rows], [],
                            tuple_add_mod(n), (0,) * dim)
        brute = {v for v in span if not ((m @ np.array(v)) % n).any()}
        members = set(kernel.iter_vectors())
        assert members == brute
        assert kernel.size == len(brute)


def test_solve_consistent_and_inconsistent():
    A = np.array([[1, 1], [0, 1], [1, 0]])
    b = np.array([0, 1, 2])
    x = solve(3, A, b)
    assert x is not None
    assert not ((A @ x - b) % 3).any()
    bad = solve(2, np.array([[1, 0], [1, 0]]), np.array([0, 1]))
    assert bad is None


@given(st.integers(0, 2**9 - 1))
def test_solve_finds_solutions_when_they_exist(code):
    # random 3x3 systems over F_2 against brute force
    bits = [(code >> k) & 1 for k in range(9)]
    A = np.array(bits, dtype=np.int64).reshape(3, 3)
    for target in range(8):
        b = np.array([(target >> k) & 1 for k in range(3)], dtype=np.int64)
        x = solve(2, A, b)
        brute = next((np.array([(v >> k) & 1 for k in range(3)])
                      for v in range(8)
                      if not ((A @ np.array([(v >> k) & 1 for k in range(3)]) - b) % 2).any()),
                     None)
        if brute is None:
            assert x is None
        else:
            assert x is not None
            assert not ((A @ x - b) % 2).any()


@settings(max_examples=300)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_solve_matches_the_row_by_row_reference(p, m, n, seed):
    rng = np.random.default_rng(seed)
    A = rng.integers(0, p, size=(m, n))
    if n > 1:
        A[:, -1] = (A[:, 0] * int(rng.integers(0, p))) % p   # a dependent column
    for b in (rng.integers(0, p, size=m), (A @ rng.integers(0, p, size=n)) % p):
        x, ref = solve(p, A, b), naive_gauss_solve(p, A, b)
        assert (x is None) == (ref is None)
        if x is not None:
            assert x.tolist() == ref.tolist()


def test_solve_refuses_a_modulus_whose_products_wrap():
    # the Mersenne prime 2^61 - 1: (p - 1)^2 is far above 2^63
    p = 2**61 - 1
    with pytest.raises(CapacityError, match="int64"):
        solve(p, np.array([[1, 2], [3, 4]]), np.array([5, 6]))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_minimal_polynomial_matches_the_first_dependent_power(p):
    # z in the matrix algebra M_3(F_p) acting on itself by left
    # multiplication: the powers of z up to the first one in the span of
    # those before it, and that power's coefficients found by brute force
    rng = np.random.default_rng(p)
    one = np.eye(3, dtype=np.int64).ravel()

    def left_mul(z):
        return np.kron(z.reshape(3, 3), np.eye(3, dtype=np.int64)) % p

    def mul(xs, ys):   # the product on stacked rows, one matrix at a time
        return np.stack([(left_mul(x) @ y) % p for x, y in zip(xs, ys)])

    for _ in range(12):
        z = rng.integers(0, p, size=9)
        if rng.random() < 0.3:
            z = (int(rng.integers(0, p)) * one) % p   # a scalar: degree 1
        powers = [one]
        while True:
            nxt = (left_mul(z) @ powers[-1]) % p
            coeffs = next((c for c in itertools.product(range(p), repeat=len(powers))
                           if not ((np.array(c) @ np.stack(powers) - nxt) % p).any()), None)
            if coeffs is not None:
                break
            powers.append(nxt)
        assert _minimal_polynomial(p, mul, z, one) == list(coeffs)


@settings(max_examples=300)
@given(insertion_problems(), st.integers(0, 2**32 - 1))
@example(UNIT_NONUNIT_BEZOUT, 0)
def test_least_member_is_the_first_nonzero_sorted_member(problem, seed):
    # in a random column order, over primes, F_2 and Z/12, Z/36
    n, dim, vecs, _ = problem
    basis = HowellBasis(n, dim)
    for vec in vecs:
        basis.insert(np.array(vec, dtype=np.int64))
    if not basis.rank:
        return
    columns = np.random.default_rng(seed).permutation(dim)
    expected = basis.sorted_members(columns, basis.size, "test")[1]
    assert basis.least_member(columns).tolist() == expected.tolist()
