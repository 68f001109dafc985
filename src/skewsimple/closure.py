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
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError

# transient memory of one chunk of enumerated members (``iter_chunks``)
CHUNK_BYTES = 1 << 17
INT64_LIMIT = 1 << 63


def check_int64(n: int, dim: int) -> None:
    """Refuse a modulus whose int64 arithmetic can wrap: a product of two
    reduced vectors of length dim, the largest intermediate of the engine,
    reaches dim*(n-1)^2."""
    need = dim * (n - 1) ** 2
    if need >= INT64_LIMIT:
        raise CapacityError("int64", INT64_LIMIT - 1, need,
                            f"arithmetic over Z/{n} in dimension {dim}")


def _normalizer(c: int, n: int) -> tuple[int, int]:
    """(u, g): a unit u modulo n with u*c = g = gcd(c, n) modulo n."""
    g = gcd(c, n)
    m = n // g   # c is nonzero mod n, so m > 1 and c // g is a unit mod m
    u = pow(c // g, -1, m)
    while gcd(u, n) != 1:
        u += m  # some lift of u mod n/g is a unit mod n (CRT)
    return u, g


class HowellBasis:
    """A submodule of (Z/n)^dim held as its Howell normal form."""

    def __init__(self, n: int, dim: int) -> None:
        check_int64(n, dim)
        self.n = n
        self.dim = dim
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []
        self.divs: list[int] = []      # pivot entries; each divides n
        self._nonunit = 0              # rows whose pivot entry is not 1

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def is_full(self) -> bool:
        return len(self.rows) == self.dim and not self._nonunit

    @property
    def size(self) -> int:
        out = 1
        for d in self.divs:
            out *= self.n // d
        return out

    def _reduce(self, v: np.ndarray) -> np.ndarray:
        """v minus the largest multiples of the rows it allows, pivot by pivot."""
        n = self.n
        if not self._nonunit:
            for row, piv in zip(self.rows, self.pivots):
                c = v[piv]
                if c:
                    v = (v - c * row) % n
            return v
        for row, piv, d in zip(self.rows, self.pivots, self.divs):
            q = int(v[piv]) // d
            if q:
                v = (v - q * row) % n
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
        n, rows, pivots, divs = self.n, self.rows, self.pivots, self.divs
        col = int(v.nonzero()[0][0])
        c = int(v[col])
        i = bisect_left(pivots, col)
        rest = []
        if i < len(pivots) and pivots[i] == col:
            # col already carries pivot d and 0 < c < d: replace that row by
            # the Bezout combination with pivot gcd(d, c), keep what is left
            row, d = rows.pop(i), divs.pop(i)
            pivots.pop(i)
            self._nonunit -= 1
            g = gcd(d, c)
            t = pow(c // g, -1, d // g)   # Bezout: s*d + t*c = g
            s = (g - t * c) // d
            new = self._reduce((s * row + t * v) % n)
            rest.append((row - (d // g) * new) % n)
            rest.append((v - (c // g) * new) % n)
        else:
            u, g = _normalizer(c, n)
            new = (v * u) % n
            if self._nonunit:
                new = self._reduce(new)
        unit_rows = g == 1 and not self._nonunit
        rows.insert(i, new)
        pivots.insert(i, col)
        divs.insert(i, g)
        if g != 1:
            self._nonunit += 1
            rest.append((new * (n // g)) % n)  # the row's annihilator multiple
        # reduce the rows above at the new pivot column (rows below vanish
        # there); with non-unit pivots the new row's nonzero entries at later
        # pivot columns call for re-reducing those columns too
        for k in range(i):
            row = rows[k]
            if unit_rows:
                c = row[col]
                if c:
                    rows[k] = (row - c * new) % n
                continue
            for m in range(i, len(rows)):
                q = int(row[pivots[m]]) // divs[m]
                if q:
                    row = (row - q * rows[m]) % n
            rows[k] = row
        return rest

    def iter_chunks(self):
        """All members, each once, as int64 arrays of consecutive rows of about
        CHUNK_BYTES each; members come in the lex order of their coefficient
        vectors (the last coefficient varies fastest)."""
        if not self.rows:
            yield np.zeros((1, self.dim), dtype=np.int64)
            return
        mat = np.stack(self.rows)
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
            coeff = (idx[:, None] // place_arr) % radix_arr
            yield (coeff @ mat) % self.n

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

    def key(self) -> tuple:
        """Hashable canonical form (the Howell rows)."""
        return tuple(tuple(int(x) for x in row) for row in self.rows)


class ClosureEngine:
    """Operator-stable submodule closures over Z/n."""

    def __init__(self, n: int, dim: int, operators: Sequence[np.ndarray]) -> None:
        check_int64(n, dim)
        self.n = n
        self.dim = dim
        self.operators = [np.asarray(op, dtype=np.int64) % n for op in operators]

    def closure(self, seeds: Iterable[Sequence[int]], *, stop_at_full: bool = True) -> HowellBasis:
        """Howell basis of the operator-stable span of the seed vectors."""
        n = self.n
        basis = HowellBasis(n, self.dim)
        pending = [np.asarray(s, dtype=np.int64) for s in seeds]
        while pending:
            vec = pending.pop() % n
            if not basis.insert(vec):
                continue
            if stop_at_full and basis.is_full:
                break
            # operators act on the inserted vector; linearity covers the rest
            pending.extend(op @ vec for op in self.operators)
        return basis


# ``bench/tracer.py`` wraps the engine's closure under this name
PrimeClosureEngine = ClosureEngine


def kernel_basis(n: int, rows, images) -> HowellBasis:
    """The kernel of the Z/n-linear map rows[i] -> images[i] on the span of
    the rows, as a Howell basis.

    The graph {(image, row)} spans {(f(x), x)}. By the Howell property its
    members vanishing on the first half, the kernel, are spanned by the rows
    whose pivot lies in the second half, and those rows are in Howell form.
    """
    split, dim = len(images[0]), len(rows[0])
    graph = HowellBasis(n, split + dim)
    for row, image in zip(rows, images):
        graph.insert(np.concatenate([image, row]))
    kernel = HowellBasis(n, dim)
    for row, piv, div in zip(graph.rows, graph.pivots, graph.divs):
        if piv >= split:
            kernel.rows.append(row[split:])
            kernel.pivots.append(piv - split)
            kernel.divs.append(div)
            kernel._nonunit += div != 1
    return kernel


def kernel_rows(n: int, rows, images) -> list[np.ndarray]:
    """The Howell rows of ``kernel_basis`` (over a prime n, its RREF rows)."""
    return kernel_basis(n, rows, images).rows


def gauss_solve(p: int, A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution x of A x = b over F_p (free variables zero), or None."""
    A = np.asarray(A, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    m, n = A.shape
    aug = np.concatenate([A, b.reshape(-1, 1)], axis=1)
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if aug[r, col]), None)
        if pivot is None:
            continue
        aug[[row, pivot]] = aug[[pivot, row]]
        aug[row] = (aug[row] * pow(int(aug[row, col]), -1, p)) % p
        for r in range(m):
            if r != row and aug[r, col]:
                aug[r] = (aug[r] - aug[r, col] * aug[row]) % p
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    # inconsistent if a zero row has nonzero rhs
    if any(aug[r, n] and not aug[r, :n].any() for r in range(m)):
        return None
    x = np.zeros(n, dtype=np.int64)
    for r, c in pivots:
        x[c] = aug[r, n]
    return x if not ((A @ x - b) % p).any() else None
