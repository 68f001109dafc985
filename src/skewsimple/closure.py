"""Closures of submodules of (Z/n)^dim stable under linear operators.

Two-sided ideals of the finite rings handled here are exactly the additive
subgroups closed under left/right multiplication by a module generating set,
so ideal closures reduce to "span + operator worklist" fixed points.

``ClosureEngine`` computes them for any modulus n, keeping the span as a
``HowellBasis``: the Howell normal form of the span (Howell 1986, "Spans in
the module (Z_m)^s"). Its rows are in echelon form with pivot entries that
divide n, entries above a pivot reduced modulo it, and the span's elements
vanishing on the first k coordinates spanned by the rows with pivot column at
least k. That last property makes the form canonical and gives every member
exactly one expansion sum(c_i row_i) with 0 <= c_i < n / pivot_i. Over a
prime n every pivot is 1 and the form is the reduced row echelon form.

The basis holds its rows as one int64 row block with an index array of pivot
columns. As long as every pivot is a unit (always over a prime) the form is
fully reduced: reducing a vector is one product, v - v[pivots] @ block, and a
new row clears its pivot column from the rows above with one outer-product
update. While some pivot is a non-unit the basis takes the sequential Howell
steps instead; a Bezout merge that leaves every pivot a unit brings it back,
as a Howell form whose pivots are units is the reduced row echelon form. The
engine holds its operators as one ``BlockMonomialStack``: each operator moves
coordinate blocks by a permutation through one small matrix per block, as
multiplication by a monomial of a skew group ring does, and a dense matrix is
the case of one block. Every inserted vector's images come from one batched
block product and a gather, taken in float64 whenever the product's integer
entries, at most size*(n-1)^2 for blocks of the given size, are exact there,
and in int64 otherwise (``exact_dtype``).

Over exactly n == 2 the constructor returns a ``BitBasis`` instead, and the
engine and ``kernel_basis`` work on packed bits: a vector of F_2^dim is a
Python int with bit j holding coordinate j, so a row's lowest set bit is its
pivot, reduction and placement are XORs, and the images of a vector under
every operator are the XOR of the packed operator columns at its set bits
(the stack's images of the unit vectors, packed a chunk at a time, so no
dense matrix is held; ``ClosureEngine.T`` transposes them as a bit matrix).
Every other modulus, prime or not, stays on the int64 block. The RREF over a
prime is unique, so both give the same rows.

``field_obstruction`` is the one field test on such spans: given the basis
of a commutative subring, its unit and the algebra's product on stacked
coordinate rows, it returns a nonzero non-unit or None. It decides both the
centre of a skew ring and the fixed centre Z(A)^G of an action, from kernels
and batched products alone.

The Howell basis is the only elimination here: ``solve`` reads a linear
system's solution off one kernel, and ``HowellBasis.least_member`` a span's
least member off its rows, without enumerating it.
"""

from __future__ import annotations

import copy
from bisect import bisect_left, insort
from math import gcd, isqrt
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError

# transient memory of one chunk of enumerated members (``iter_chunks``)
CHUNK_BYTES = 1 << 17
# points of F_p per evaluation of a polynomial in ``_least_root``
ROOT_CHUNK = 1 << 16
INT64_LIMIT = 1 << 63
# float64 holds every integer below this one exactly
FLOAT64_EXACT = 1 << 53
# the row block of a basis without rows, and its pivot columns
_EMPTY_BLOCK = np.empty((0, 0), dtype=np.int64)
_EMPTY_PIVOTS = np.empty(0, dtype=np.intp)


def check_int64(n: int, dim: int) -> None:
    """Refuse a modulus whose int64 arithmetic can wrap: a product of two
    reduced vectors of length dim, the largest intermediate of the engine,
    reaches dim*(n-1)^2."""
    need = dim * (n - 1) ** 2
    if need >= INT64_LIMIT:
        raise CapacityError("int64", INT64_LIMIT - 1, need,
                            f"arithmetic over Z/{n} in dimension {dim}")


def exact_dtype(terms: int, n: int) -> type:
    """The dtype of a product whose entries sum terms products of entries in
    0..n-1, integers of at most terms*(n-1)^2: float64 (a BLAS product) while
    that is exact there, int64 otherwise."""
    return np.float64 if terms * (n - 1) ** 2 < FLOAT64_EXACT else np.int64


def _normalizer(c: int, n: int) -> tuple[int, int]:
    """(u, g): a unit u modulo n with u*c = g = gcd(c, n) modulo n."""
    if c == 1:
        return 1, 1
    g = gcd(c, n)
    m = n // g   # c is nonzero mod n, so m > 1 and c // g is a unit mod m
    u = pow(c // g, -1, m)
    while gcd(u, n) != 1:
        u += m  # some lift of u mod n/g is a unit mod n (CRT)
    return u, g


class HowellBasis:
    """A submodule of (Z/n)^dim held as its Howell normal form.

    The rows are the first ``rank`` rows of one int64 row block, in pivot
    order, with their pivot columns also in an index array and their pivot
    entries in ``divs``. The block is allocated at the first new row, with
    room for ``max_rank`` rows (at most dim, the default). While every pivot
    is a unit the rows are the reduced row echelon form: a vector is reduced
    by one product and a new row clears its pivot column from the rows above
    by one outer-product update. While some pivot is a non-unit the basis
    takes the sequential Howell steps, row by row. Over exactly n == 2 the
    constructor and ``from_rows`` return a ``BitBasis`` instead.
    """

    def __new__(cls, n: int, dim: int, max_rank: int | None = None) -> "HowellBasis":
        # a span over exactly F_2 is held as packed bits
        if cls is HowellBasis and n == 2:
            cls = BitBasis
        return super().__new__(cls)

    def __init__(self, n: int, dim: int, max_rank: int | None = None) -> None:
        check_int64(n, dim)
        self.n = n
        self.dim = dim
        self.max_rank = dim if max_rank is None else min(dim, max_rank)
        self.pivots: list[int] = []    # pivot columns, increasing
        self.divs: list[int] = []      # pivot entries; each divides n
        self._block = _EMPTY_BLOCK     # the rows, then spare rows
        self._piv = _EMPTY_PIVOTS      # the pivot columns as an index array
        self._rank = 0
        self._nonunit = 0              # rows whose pivot entry is not 1

    @classmethod
    def from_rows(cls, n: int, dim: int, rows: np.ndarray, pivots: Sequence[int],
                  divs: Sequence[int]) -> "HowellBasis":
        """The basis with the given rows, already in Howell form, pivot
        columns and pivot entries."""
        basis = cls(n, dim)
        basis._load(np.array(rows, dtype=np.int64).reshape(len(divs), dim), pivots, divs)
        return basis

    def _load(self, rows: np.ndarray, pivots: Sequence[int], divs: Sequence[int]) -> None:
        self._block = rows
        self._piv = np.array(pivots, dtype=np.intp)
        self._rank = len(divs)
        self.pivots = [int(c) for c in pivots]
        self.divs = list(divs)
        self._nonunit = sum(d != 1 for d in self.divs)

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def rows(self) -> list[np.ndarray]:
        """The Howell rows in pivot order (copies)."""
        return list(self.matrix())

    def matrix(self) -> np.ndarray:
        """The Howell rows as one (rank x dim) int64 array (a copy)."""
        return self._matrix().copy()

    def _matrix(self) -> np.ndarray:
        """The Howell rows as one (rank x dim) int64 block."""
        return self._block[:self._rank]

    @property
    def is_full(self) -> bool:
        return self._rank == self.dim and not self._nonunit

    @property
    def size(self) -> int:
        out = 1
        for d in self.divs:
            out *= self.n // d
        return out

    def _reduce(self, v: np.ndarray) -> np.ndarray:
        """v minus the largest multiples of the rows it allows, pivot by pivot."""
        rank = self._rank
        if not rank:
            return v
        block = self._block
        if not self._nonunit:
            # each row vanishes at the other rows' pivots: all steps at once
            coeffs = v[self._piv[:rank]]
            if not np.count_nonzero(coeffs):
                return v
            return (v - coeffs @ block[:rank]) % self.n
        n = self.n
        for k, (piv, d) in enumerate(zip(self.pivots, self.divs)):
            q = int(v[piv]) // d
            if q:
                v = (v - q * block[k]) % n
        return v

    def contains(self, vec: Sequence[int]) -> bool:
        return not np.count_nonzero(self._reduce(np.asarray(vec, dtype=np.int64) % self.n))

    def insert(self, vec: np.ndarray) -> bool:
        """Fold vec (entries in 0..n-1) into the span; False if already a member."""
        v = self._reduce(vec)
        if not np.count_nonzero(v):
            return False
        pending = self._place(v)
        while pending:
            v = self._reduce(pending.pop())
            if np.count_nonzero(v):
                pending.extend(self._place(v))
        return True

    def _place(self, v: np.ndarray) -> list[np.ndarray]:
        """Make the reduced nonzero vector v a row; returns the vectors still
        to be folded in (all vanish up to v's first nonzero column)."""
        n, pivots, divs = self.n, self.pivots, self.divs
        col = int(v.nonzero()[0][0])
        c = int(v[col])
        i = bisect_left(pivots, col)
        rest = []
        if i < len(pivots) and pivots[i] == col:
            # col already carries pivot d and 0 < c < d: replace that row by
            # the Bezout combination with pivot gcd(d, c), keep what is left
            row, d = self._block[i].copy(), divs[i]
            self._remove(i)
            self._nonunit -= 1
            g = gcd(d, c)
            t = pow(c // g, -1, d // g)   # Bezout: s*d + t*c = g
            s = (g - t * c) // d
            new = self._reduce((s * row + t * v) % n)
            rest.append((row - (d // g) * new) % n)
            rest.append((v - (c // g) * new) % n)
        else:
            u, g = _normalizer(c, n)
            new = v if u == 1 else (v * u) % n
            if self._nonunit:
                new = self._reduce(new)
        self._insert(i, new, col, g)
        if g != 1:
            self._nonunit += 1
            rest.append((new * (n // g)) % n)  # the row's annihilator multiple
        if not i:
            return rest
        # reduce the rows above at the new pivot column (rows below vanish
        # there); with non-unit pivots the new row's nonzero entries at later
        # pivot columns call for re-reducing those columns too
        block = self._block
        if not self._nonunit:
            above = block[:i]
            column = above[:, col]
            if np.count_nonzero(column):
                above -= column[:, None] * new
                above %= n
            return rest
        later = list(zip(range(i, self._rank), pivots[i:], divs[i:]))
        for k in range(i):
            row = block[k]
            for m, piv, d in later:
                q = int(row[piv]) // d
                if q:
                    row = (row - q * block[m]) % n
            block[k] = row
        return rest

    def _insert(self, i: int, row: np.ndarray, col: int, div: int) -> None:
        """Make row the i-th row, with pivot col and pivot entry div."""
        rank = self._rank
        if rank == len(self._block):
            self._allocate()
        block, piv = self._block, self._piv
        if i < rank:
            block[i + 1:rank + 1] = block[i:rank]
            piv[i + 1:rank + 1] = piv[i:rank]
        block[i] = row
        piv[i] = col
        self.pivots.insert(i, col)
        self.divs.insert(i, div)
        self._rank = rank + 1

    def _allocate(self) -> None:
        """Make the block room for max_rank rows, keeping the rows it holds
        (none, unless the basis came from ``from_rows``)."""
        rank = self._rank
        block = np.empty((self.max_rank, self.dim), dtype=np.int64)
        piv = np.empty(self.max_rank, dtype=np.intp)
        if rank:
            block[:rank] = self._block[:rank]
            piv[:rank] = self._piv[:rank]
        self._block, self._piv = block, piv

    def _remove(self, i: int) -> None:
        """Drop the i-th row."""
        block, piv, rank = self._block, self._piv, self._rank
        block[i:rank - 1] = block[i + 1:rank]
        piv[i:rank - 1] = piv[i + 1:rank]
        self.pivots.pop(i)
        self.divs.pop(i)
        self._rank = rank - 1

    def iter_chunks(self):
        """All members, each once, as int64 arrays of consecutive rows of about
        CHUNK_BYTES each; members come in the lex order of their coefficient
        vectors (the last coefficient varies fastest).

        A chunk is its coefficient vectors times the rows, a product of rank
        terms (``exact_dtype``)."""
        if not self._rank:
            yield np.zeros((1, self.dim), dtype=np.int64)
            return
        dtype = exact_dtype(self._rank, self.n)
        mat = self._matrix().astype(dtype, copy=False)
        radix = [self.n // d for d in self.divs]
        place = [1] * len(radix)   # members between steps of coefficient i
        for i in range(len(radix) - 2, -1, -1):
            place[i] = place[i + 1] * radix[i + 1]
        place_arr = np.array(place, dtype=np.int64)
        radix_arr = np.array(radix, dtype=np.int64)
        step = max(1, CHUNK_BYTES // (8 * (len(radix) + self.dim)))
        size = self.size
        for start in range(0, size, step):
            idx = np.arange(start, min(start + step, size), dtype=np.int64)
            coeff = ((idx[:, None] // place_arr) % radix_arr).astype(dtype, copy=False)
            chunk = (coeff @ mat).astype(np.int64, copy=False)
            chunk %= self.n
            yield chunk

    def iter_vectors(self):
        """All members as tuples, in the order of ``iter_chunks``."""
        for chunk in self.iter_chunks():
            for row in chunk.tolist():
                yield tuple(row)

    def sorted_members(self, columns: np.ndarray, cap: int, what: str) -> np.ndarray:
        """All members as the rows of one array, sorted lexicographically on
        the given columns (most significant first); refused as ``what`` when
        there are more than cap."""
        if self.size > cap:
            raise CapacityError("enumeration", cap, self.size, what)
        vecs = np.concatenate(list(self.iter_chunks()))
        return vecs[np.lexsort(vecs[:, columns[::-1]].T)]

    def least_member(self, columns: np.ndarray) -> np.ndarray:
        """The least nonzero member of a nonzero span, lexicographically on
        columns (every coordinate once, most significant first), at any size.
        Re-echeloned with its coordinates in that order, the members zero
        before the last pivot are the multiples c of the last row, carrying
        c * d < n at its pivot entry d, and every other member is nonzero
        earlier; so the last row (c = 1) is the least."""
        reordered = HowellBasis(self.n, self.dim)
        for row in self._matrix()[:, columns]:
            reordered.insert(row)
        least = np.empty(self.dim, dtype=np.int64)
        least[columns] = reordered._matrix()[-1]
        return least

    def key(self) -> tuple:
        """Hashable canonical form (the Howell rows)."""
        return tuple(map(tuple, self._matrix().tolist()))


class BitBasis(HowellBasis):
    """A subspace of F_2^dim, the basis ``HowellBasis(2, dim)`` returns.

    Its reduced row echelon rows are Python ints, bit j holding column j, so
    a row's lowest set bit is its pivot. ``_row_at`` maps each pivot bit to
    its row and ``_mask`` is the union of the pivot bits. A vector is reduced
    by XORing in the row of each pivot bit it carries (the rows vanish at
    each other's pivots, so those bits are read once); a new row is XORed
    into every row holding its pivot bit. The int64 block that ``rows``,
    ``key`` and ``iter_chunks`` read is unpacked from the ints when first
    asked for and dropped at the next insert.
    """

    def __init__(self, n: int, dim: int, max_rank: int | None = None) -> None:
        super().__init__(n, dim, max_rank)
        self._row_at: dict[int, int] = {}
        self._mask = 0
        self._block = None

    def _load(self, rows: np.ndarray, pivots: Sequence[int], divs: Sequence[int]) -> None:
        self._load_bits(_pack_rows(rows))

    def _load_bits(self, rows: list[int]) -> None:
        """Take rows, packed and already in reduced row echelon form, in
        pivot order."""
        self._row_at = {row & -row: row for row in rows}
        self._mask = sum(self._row_at)
        self.pivots = [bit.bit_length() - 1 for bit in self._row_at]
        self.divs = [1] * len(rows)
        self._rank = len(rows)
        self._block = None

    def _matrix(self) -> np.ndarray:
        if self._block is None:
            row_at = self._row_at
            self._block = _unpack_rows([row_at[1 << c] for c in self.pivots], self.dim)
        return self._block

    def _reduce_bits(self, v: int) -> int:
        row_at = self._row_at
        carried = v & self._mask
        while carried:
            low = carried & -carried
            v ^= row_at[low]
            carried ^= low
        return v

    def _insert_bits(self, v: int) -> bool:
        """Fold the packed vector v into the span; False if already a member."""
        v = self._reduce_bits(v)
        if not v:
            return False
        low = v & -v
        row_at = self._row_at
        for bit, row in row_at.items():
            if row & low:
                row_at[bit] = row ^ v
        row_at[low] = v
        self._mask |= low
        insort(self.pivots, low.bit_length() - 1)
        self.divs.append(1)
        self._rank += 1
        self._block = None
        return True

    def contains(self, vec: Sequence[int]) -> bool:
        return not self._reduce_bits(_pack(np.asarray(vec, dtype=np.int64) & 1))

    def insert(self, vec: np.ndarray) -> bool:
        return self._insert_bits(_pack(vec))


def _pack(vec: np.ndarray) -> int:
    """A 0/1 vector as an int, bit j holding entry j."""
    return int.from_bytes(np.packbits(vec, bitorder="little").tobytes(), "little")


def _pack_rows(mat: np.ndarray) -> list[int]:
    """Each row of a 0/1 matrix as an int (``_pack``), from one packbits."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    width, data = packed.shape[1], packed.tobytes()
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, len(data), width)] if width else [0] * len(mat)


def _unpack_rows(rows: list[int], dim: int) -> np.ndarray:
    """The (len(rows) x dim) int64 0/1 block of packed rows."""
    return _unpack_bits(rows, dim).astype(np.int64)


def _unpack_bits(rows: list[int], dim: int) -> np.ndarray:
    """The (len(rows) x dim) uint8 0/1 block of packed rows."""
    width = (dim + 7) // 8
    data = b"".join(row.to_bytes(width, "little") for row in rows)
    bits = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), width)
    return np.unpackbits(bits, axis=1, count=dim, bitorder="little")


def _transposed_columns(columns: list[int], dim: int, count: int) -> list[int]:
    """The packed columns of the transposed operators, from those of the
    operators (``ClosureEngine``): bit k*dim + i of column j of the
    transposes is bit k*dim + j of column i. The bits are unpacked and
    transposed a chunk of operators at a time, about CHUNK_BYTES of them."""
    step = max(1, CHUNK_BYTES // (dim * dim))
    out = [0] * dim
    for lo in range(0, count, step):
        width = min(step, count - lo) * dim
        shift, mask = lo * dim, (1 << width) - 1
        bits = _unpack_bits([(col >> shift) & mask for col in columns], width)
        rows = _pack_rows(bits.reshape(dim, -1, dim).transpose(2, 1, 0).reshape(dim, width))
        out = [acc | (row << shift) for acc, row in zip(out, rows)]
    return out


class BlockMonomialStack:
    """A stack of block-monomial linear operators on (Z/n)^dim.

    The coordinates fall into ``blocks`` blocks of ``size`` each (dim =
    blocks * size). Operator k sends block s to block ``targets[k, s]``
    through the size x size matrix ``matrices[k, s]``, and each row
    ``targets[k]`` is a permutation of the blocks: block t of the image of v
    is matrices[k, s] @ v_s for the one s with targets[k, s] = t. A dense
    dim x dim matrix is the case of one block (``dense``). The stack holds
    K * blocks * size^2 entries where the dense matrices hold K * dim^2.

    ``apply`` gives the images of a vector under every operator, in stack
    order, as one batched product and one gather: the matrices that read
    block s are stacked into one (K*size x size) matrix, which multiplies
    v_s, and the products are gathered into their target blocks. Each entry
    of a block product sums size products of reduced entries, so the
    product is taken in ``exact_dtype(size, n)``. The stack
    refuses the (n, dim) pairs ``check_int64`` refuses, as the engine does,
    so the int64 product never wraps either.
    """

    def __init__(self, n: int, targets: np.ndarray, matrices: np.ndarray) -> None:
        matrices = np.asarray(matrices, dtype=np.int64)   # (K, blocks, size, size)
        count, blocks, size = matrices.shape[:3]
        check_int64(n, blocks * size)
        self.n = n
        self.blocks, self.size, self.dim = blocks, size, blocks * size
        self.targets = np.asarray(targets, dtype=np.intp)   # (K, blocks)
        self.matrices = matrices % n
        dtype = exact_dtype(size, n)
        # [s] stacks the matrices reading block s, operator by operator
        self._by_source = np.ascontiguousarray(self.matrices.transpose(1, 0, 2, 3),
                                               dtype=dtype).reshape(blocks, count * size, size)
        # block t of operator k is product (s, k), s = sources[k, t] the block
        # sent to t
        operators = np.arange(count)[:, None]
        self._sources = sources = np.empty_like(self.targets)
        sources[operators, self.targets] = np.arange(blocks)
        products = np.arange(blocks * count * size).reshape(blocks, count, size)
        self._gather = products[sources, operators].ravel()

    @classmethod
    def dense(cls, n: int, dim: int, matrices: Sequence[np.ndarray]) -> "BlockMonomialStack":
        """The dim x dim matrices as a stack of one block each."""
        mats = np.asarray(matrices, dtype=np.int64).reshape(-1, 1, dim, dim)
        return cls(n, np.zeros((len(mats), 1), dtype=np.intp), mats)

    def __len__(self) -> int:
        return len(self.targets)

    @property
    def T(self) -> "BlockMonomialStack":
        """The transposed operators: each sends block t = targets[k, s] back
        to s through the transpose of matrices[k, s]."""
        sources, rows = self._sources, np.arange(len(self))[:, None]
        return BlockMonomialStack(self.n, sources,
                                  self.matrices[rows, sources].transpose(0, 1, 3, 2))

    def apply(self, vecs: np.ndarray) -> np.ndarray:
        """The images of vecs (..., dim), entries in 0..n-1, under every
        operator, as an int64 array (..., K, dim) reduced modulo n."""
        vecs = np.asarray(vecs)
        lead = vecs.shape[:-1]
        # [s] holds block s of every vector as a column
        columns = vecs.reshape(-1, self.blocks, self.size).transpose(1, 2, 0)
        products = (self._by_source @ columns).reshape(-1, columns.shape[2])
        images = products.take(self._gather, axis=0).astype(np.int64, copy=False)
        images %= self.n
        return images.T.reshape(*lead, len(self), self.dim)


class ClosureEngine:
    """Operator-stable submodule closures over Z/n, under a
    ``BlockMonomialStack`` (dense matrices are taken as the one-block
    stack)."""

    def __init__(self, n: int, dim: int,
                 operators: "BlockMonomialStack | Sequence[np.ndarray]") -> None:
        check_int64(n, dim)
        self.n = n
        self.dim = dim
        if not isinstance(operators, BlockMonomialStack):
            operators = BlockMonomialStack.dense(n, dim, operators)
        self._count = len(operators)
        self._ops = operators
        # over F_2, column j of the stacked operators packed into an int: the
        # images of a packed v under every operator are the XOR of the
        # columns at v's bits; built from the images of the unit vectors, a
        # chunk of about CHUNK_BYTES at a time, and the only form kept
        self._columns = None
        if n == 2:
            width = self._count * dim
            step = max(1, CHUNK_BYTES // (8 * max(1, width)))
            self._columns = []
            for lo in range(0, dim, step):
                units = np.eye(min(step, dim - lo), dim, lo, dtype=np.int64)
                self._columns += _pack_rows(operators.apply(units).reshape(len(units), width))
            self._ops = None

    @property
    def T(self) -> "ClosureEngine":
        """The engine of the transposed operators, in the same order. Over
        F_2 its packed columns are this engine's, transposed as a bit matrix
        operator by operator, with no pass over the unit vectors; over other
        moduli it closes under the transposed stack."""
        if self._columns is None:
            return ClosureEngine(self.n, self.dim, self._ops.T)
        dual = copy.copy(self)
        dual._columns = _transposed_columns(self._columns, self.dim, self._count)
        return dual

    def closure(self, seeds: Iterable[Sequence[int]]) -> HowellBasis:
        """Howell basis of the operator-stable span of the seed vectors; a
        full span is final and ends the worklist."""
        if self._columns is not None:
            return self._closure_bits(seeds)
        n, dim, ops = self.n, self.dim, self._ops
        basis = HowellBasis(n, dim)
        pending = [np.asarray(s, dtype=np.int64) % n for s in seeds]
        while pending:
            vec = pending.pop()
            if not basis.insert(vec):
                continue
            if basis.is_full:
                break
            # operators act on the inserted vector; linearity covers the rest
            pending.extend(ops.apply(vec))
        return basis

    def _closure_bits(self, seeds: Iterable[Sequence[int]]) -> BitBasis:
        """``closure`` over F_2 on packed vectors, pushing and popping them in
        the same order."""
        dim, columns = self.dim, self._columns
        basis = BitBasis(2, dim)
        word = (1 << dim) - 1
        shifts = range(0, self._count * dim, dim)
        pending = [_pack(np.asarray(s, dtype=np.int64) & 1) for s in seeds]
        while pending:
            vec = pending.pop()
            if not basis._insert_bits(vec):
                continue
            if basis.is_full:
                break
            images, bits = 0, vec
            while bits:
                low = bits & -bits
                images ^= columns[low.bit_length() - 1]
                bits ^= low
            # operator k's image is the k-th dim-bit slice
            pending.extend([(images >> s) & word for s in shifts])
        return basis


# ``bench/tracer.py`` wraps the engine's closure under this name
PrimeClosureEngine = ClosureEngine


def kernel_basis(n: int, rows, images) -> HowellBasis:
    """The kernel of the Z/n-linear map rows[i] -> images[i] on the span of
    the rows, as a Howell basis.

    The graph {(image, row)} spans {(f(x), x)}. By the Howell property its
    members vanishing on the first half, the kernel, are spanned by the rows
    whose pivot lies in the second half, and those rows are in Howell form.

    Every Howell row adds at least one prime factor to the size of the span,
    prod(n / pivot), which divides n^len(rows); so the graph's rank is at most
    len(rows) times the number of prime factors of n, at most log2(n).
    """
    split, dim = len(images[0]), len(rows[0])
    if n == 2:
        graph = BitBasis(2, split + dim)
        for vec in _pack_rows(np.concatenate([np.asarray(images, dtype=np.int64),
                                              np.asarray(rows, dtype=np.int64)], axis=1) & 1):
            graph._insert_bits(vec)
        kernel = BitBasis(2, dim)
        row_at = graph._row_at
        kernel._load_bits([row_at[1 << piv] >> split
                           for piv in graph.pivots[bisect_left(graph.pivots, split):]])
        return kernel
    graph = HowellBasis(n, split + dim, len(rows) * (n.bit_length() - 1))
    for vec in np.concatenate([np.asarray(images, dtype=np.int64),
                               np.asarray(rows, dtype=np.int64)], axis=1):
        graph.insert(vec)
    first = bisect_left(graph.pivots, split)
    return HowellBasis.from_rows(n, dim, graph._block[first:graph.rank, split:],
                                 [piv - split for piv in graph.pivots[first:]],
                                 graph.divs[first:])


def kernel_rows(n: int, rows, images) -> list[np.ndarray]:
    """The Howell rows of ``kernel_basis`` (over a prime n, its RREF rows)."""
    return kernel_basis(n, rows, images).rows


def solve(p: int, A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """The solution x of A x = b over F_p that is zero on A's free columns
    (those Gauss-Jordan from the left leaves without a pivot), or None; read
    off the kernel of (t, x) -> A x - t b, coordinates ordered t, x_{n-1},
    ..., x_0, whose int64 guard it shares.

    Over a prime the kernel's Howell rows are its RREF. One has its pivot at
    c when the map's column c lies in the span of the columns after it, in
    this order when column c of [A | -b] lies in the span of those before
    it: when c is free in [A | -b]. A kernel vector is fixed by its values at
    the free columns, so each row is 1 at its own and 0 at the others. A x =
    b is solvable exactly when -b's column is free, that is when the first
    row's pivot is t, and that row is (1, x reversed).
    """
    A = np.asarray(A, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    images = np.concatenate([(-b % p)[None], A[:, ::-1].T])
    kernel = kernel_basis(p, np.eye(len(images), dtype=np.int64), images)
    if not kernel.rank or kernel.pivots[0]:
        return None
    x = kernel.rows[0][:0:-1]
    return x if not ((A @ x - b) % p).any() else None


def rowwise(fn, xs: np.ndarray, ys: np.ndarray, row_bytes: int) -> np.ndarray:
    """fn(x, y) on consecutive chunks of the rows of xs and ys, stacked: about
    CHUNK_BYTES / row_bytes rows at a time, so that no intermediate of fn,
    row_bytes for each row, grows with the number of rows."""
    step = max(1, CHUNK_BYTES // row_bytes)
    if len(ys) <= step:
        return fn(xs, ys)
    return np.concatenate([fn(xs[lo:lo + step], ys[lo:lo + step])
                           for lo in range(0, len(ys), step)])


def field_obstruction(n: int, rows: np.ndarray, one: np.ndarray, mul) -> np.ndarray | None:
    """A nonzero element of a commutative ring Z that is not a unit of Z, or
    None when Z is a field; decided on Z's basis, without enumerating Z, so
    at any |Z|.

    Z is a subring of an algebra over Z/n, spanned by the Howell rows (the
    rows of an array), with unit ``one``; ``mul(xs, ys)`` is the algebra's
    product on stacked coordinate rows, the coordinates of x y for each pair
    of rows. In composite characteristic n the obstruction is p*1, with p
    the least prime dividing n. Over a prime p, a Z of rank 1 is F_p*1, a
    field. Otherwise phi(z) = z^p is F_p-linear on Z, and Z is a field
    exactly when phi is injective and its fixed space is the scalars
    (Berlekamp 1967). phi of every basis row comes from the same batched
    products, by square-and-multiply. The obstruction is then the first RREF
    row of ker phi when that kernel is nonzero; otherwise it is z - c*1,
    with z the first RREF row of ker(phi - id) that is not a scalar and c
    the least value making z - c*1 a non-unit (the least root of z's minimal
    polynomial, whose powers of z come from the same product).
    """
    p = next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)
    if p != n:
        return (p * one) % n
    if len(rows) == 1:
        return None
    rows = np.asarray(rows, dtype=np.int64)
    images = _power(mul, rows, p)
    nilpotent = kernel_rows(p, rows, images)
    if nilpotent:
        return nilpotent[0]
    fixed = kernel_rows(p, rows, (images - rows) % p)
    if len(fixed) == 1:
        return None
    scalars = HowellBasis(p, len(one))
    scalars.insert(one)
    z = next(f for f in fixed if not scalars.contains(f))
    c = _least_root(p, _minimal_polynomial(p, mul, z, one))
    return (z - c * one) % p


def _power(mul, zs: np.ndarray, e: int) -> np.ndarray:
    """The coordinates of z^e (e >= 2) for every row z of zs, elements of a
    commutative subring, by square-and-multiply on all rows at once."""
    out = zs
    for bit in bin(e)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(zs, out)
    return out


def _minimal_polynomial(p: int, mul, z: np.ndarray, one: np.ndarray) -> list[int]:
    """Coefficients s_0..s_{k-1} with z^k = sum s_i z^i and k least, over F_p:
    z^k is the first power already in the span of those before it."""
    span = HowellBasis(p, len(one))
    span.insert(one)
    powers = [one]
    while True:
        nxt = mul(z[None], powers[-1][None])[0]
        if not span.insert(nxt):
            return [int(c) for c in solve(p, np.stack(powers, axis=1), nxt)]
        powers.append(nxt)


def _least_root(p: int, coeffs: list[int]) -> int:
    """The least root in F_p of x^k - sum coeffs[i] x^i, evaluated on
    ROOT_CHUNK points of F_p at a time up to the first chunk holding a root.

    The polynomial is the minimal polynomial of a z with z^p = z, so it
    divides x^p - x and has a root in F_p."""
    for start in range(0, p, ROOT_CHUNK):
        xs = np.arange(start, min(start + ROOT_CHUNK, p), dtype=np.int64)
        value = np.ones_like(xs)
        for c in reversed(coeffs):
            value = (value * xs - c) % p
        roots = np.flatnonzero(value == 0)
        if roots.size:
            return start + int(roots[0])
    raise ArithmeticError(f"no root in F_{p}")
