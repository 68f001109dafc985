"""Independent verifier for skewsimple outputs.

Everything here is rebuilt from an instance *description* (the JSON-level
ring, group and action descriptors) with arithmetic of its own: its own group
tables, its own coefficient-ring multiplication, its own skew product
(a u_g)(b u_h) = a sigma_g(b) u_{gh} and its own elimination modulo p. No
function of the skewsimple package is called, so a fault in the program cannot
hide itself by being repeated here.

What it decides:

* ``ideal_is_proper``: the two-sided ideal generated by r is proper. The ideal
  is the additive span of {b r b'} over basis monomials b, b'; it is all of R
  exactly when its image in R/pR has full rank for every prime p dividing the
  characteristic.
* ``g_simple``, ``sigma_injective``, ``point_orbits``: structural facts about
  the action, computed from the description (for function rings an invariant
  ideal is the vanishing ideal of an invariant point set, Z/n has only the
  identity automorphism, and M_k(F_p) is simple).
* ``regular``: the action permutes points freely and transitively, so that
  F_q^X x| G is a full matrix ring and can never be declared non-simple.
"""

from __future__ import annotations

from itertools import permutations, product

import numpy as np


# groups ----------------------------------------------------------------------

def _cycle_label(perm: tuple[int, ...]) -> str:
    seen = set()
    out = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cycle = [start]
        seen.add(start)
        x = perm[start]
        while x != start:
            cycle.append(x)
            seen.add(x)
            x = perm[x]
        out.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(out) or "e"


class Group:
    """A finite group from a descriptor: elements 0..n-1, identity 0."""

    def __init__(self, desc: dict) -> None:
        kind = desc["kind"]
        self.perms = None
        self.tuples = None
        if kind == "cyclic_product":
            orders = [int(n) for n in desc["orders"]]
            elems = list(product(*[range(n) for n in orders]))
            index = {e: i for i, e in enumerate(elems)}
            self.mul = [[index[tuple((x + y) % n for x, y, n in zip(a, b, orders))]
                         for b in elems] for a in elems]
            if len(orders) == 1:
                self.names = [str(e[0]) for e in elems]
            else:
                self.names = ["(" + ",".join(map(str, e)) + ")" for e in elems]
            self.tuples = elems
            self.orders = orders
        elif kind in ("permutation", "symmetric"):
            degree = int(desc["degree"])
            if kind == "symmetric":
                elems = sorted(permutations(range(degree)))
            else:
                gens = [tuple(int(x) for x in g) for g in desc["generators"]]
                elems = {tuple(range(degree))}
                frontier = list(elems)
                while frontier:
                    nxt = []
                    for a in frontier:
                        for g in gens:
                            c = tuple(a[g[i]] for i in range(degree))
                            if c not in elems:
                                elems.add(c)
                                nxt.append(c)
                    frontier = nxt
                elems = sorted(elems)
            index = {p: i for i, p in enumerate(elems)}
            self.mul = [[index[tuple(a[b[i]] for i in range(degree))] for b in elems]
                        for a in elems]
            self.names = [_cycle_label(p) for p in elems]
            self.perms = elems
        elif kind == "table":
            self.mul = [[int(x) for x in row] for row in desc["mul"]]
            n = len(self.mul)
            self.names = list(desc.get("names") or [str(i) for i in range(n)])
        else:
            raise ValueError(f"unknown group kind {kind!r}")
        self.order = len(self.mul)
        self.inv = [next(h for h in range(self.order) if self.mul[g][h] == 0)
                    for g in range(self.order)]
        self.is_abelian = all(self.mul[a][b] == self.mul[b][a]
                              for a in range(self.order) for b in range(self.order))
        self.index_of_name = {name: i for i, name in enumerate(self.names)}


# finite fields and coefficient rings ------------------------------------------

def _prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    m, rest = 0, q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


def _digits(code: int, p: int, m: int) -> tuple[int, ...]:
    out = []
    for _ in range(m):
        out.append(code % p)
        code //= p
    return tuple(out)


def _polymulmod(a, b, modulus, p):
    m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i]
        if c:
            for j in range(m + 1):
                prod[i - m + j] = (prod[i - m + j] - c * modulus[j]) % p
    return tuple((prod + [0] * m)[:m])


def _irreducible(modulus, p) -> bool:
    """Whether the monic polynomial has no monic factor of degree <= m/2."""
    m = len(modulus) - 1
    for deg in range(1, m // 2 + 1):
        for code in range(p ** deg):
            div = _digits(code, p, deg) + (1,)
            work = list(modulus)
            for i in range(len(work) - 1, deg - 1, -1):
                c = work[i]
                if c:
                    for j in range(deg + 1):
                        work[i - deg + j] = (work[i - deg + j] - c * div[j]) % p
            if not any(work):
                return False
    return True


class GF:
    """GF(p^m) on integer codes whose base-p digits (least significant first)
    are polynomial coefficients modulo the first monic irreducible in code
    order, which is the encoding instance files use."""

    def __init__(self, q: int) -> None:
        p, m = _prime_power(q)
        self.q, self.p, self.m = q, p, m
        if m == 1:
            modulus = (0, 1)
        else:
            modulus = next(_digits(c, p, m) + (1,) for c in range(p ** m)
                           if _irreducible(_digits(c, p, m) + (1,), p))
        digits = [_digits(c, p, m) for c in range(q)]
        code = {d: c for c, d in enumerate(digits)}
        self.mul = [[code[_polymulmod(digits[a], digits[b], modulus, p)] for b in range(q)]
                    for a in range(q)]
        self.digits = digits
        self.code = code


class CoefficientRing:
    """A as Z/char-coordinates with structure constants for the product."""

    def __init__(self, desc: dict) -> None:
        kind = desc["kind"]
        self.kind = kind
        if kind == "modular":
            n = int(desc["n"])
            self.char, self.dim, self.size = n, 1, n
            self.commutative = True
        elif kind == "matrix":
            k, p = int(desc["size"]), int(desc["prime"])
            self.k = k
            self.char, self.dim, self.size = p, k * k, p ** (k * k)
            self.commutative = k == 1
        elif kind == "function":
            pts = desc["points"]
            self.npoints = pts if isinstance(pts, int) else len(pts)
            self.gf = GF(int(desc["q"]))
            self.char = self.gf.p
            self.dim = self.npoints * self.gf.m
            self.size = self.gf.q ** self.npoints
            self.commutative = True
        else:
            raise ValueError(f"unknown ring kind {kind!r}")
        basis = [tuple(1 if j == i else 0 for j in range(self.dim)) for i in range(self.dim)]
        const = np.zeros((self.dim, self.dim, self.dim), dtype=np.int64)
        for i, x in enumerate(basis):
            for j, y in enumerate(basis):
                const[i, j] = self._mul_coords(x, y)
        self.const = const
        self.one = np.array(self._one_coords(), dtype=np.int64)

    def _one_coords(self):
        if self.kind == "modular":
            return (1,)
        if self.kind == "matrix":
            return tuple(1 if i % (self.k + 1) == 0 else 0 for i in range(self.dim))
        return tuple(d for _ in range(self.npoints) for d in self.gf.digits[1])

    def _mul_coords(self, x, y):
        if self.kind == "modular":
            return ((x[0] * y[0]) % self.char,)
        if self.kind == "matrix":
            k, p = self.k, self.char
            return tuple(sum(x[i * k + t] * y[t * k + j] for t in range(k)) % p
                         for i in range(k) for j in range(k))
        gf, m = self.gf, self.gf.m
        out = []
        for pt in range(self.npoints):
            a = gf.code[tuple(x[pt * m:(pt + 1) * m])]
            b = gf.code[tuple(y[pt * m:(pt + 1) * m])]
            out.extend(gf.digits[gf.mul[a][b]])
        return tuple(out)

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x, y, self.const) % self.char

    # JSON payloads and canonical ranks -------------------------------------
    def decode(self, raw) -> np.ndarray:
        if self.kind == "modular":
            return np.array([int(raw) % self.char], dtype=np.int64)
        if self.kind == "matrix":
            flat = [x for row in raw for x in row] if isinstance(raw[0], list) else list(raw)
            return np.array([int(x) % self.char for x in flat], dtype=np.int64)
        return np.array([d for c in raw for d in self.gf.digits[int(c)]], dtype=np.int64)

    def encode(self, x) -> object:
        x = [int(v) for v in x]
        if self.kind == "modular":
            return x[0]
        if self.kind == "matrix":
            return [x[i * self.k:(i + 1) * self.k] for i in range(self.k)]
        m = self.gf.m
        return [self.gf.code[tuple(x[i * m:(i + 1) * m])] for i in range(self.npoints)]

    def rank_of(self, raw) -> int:
        """Position of a payload in the canonical enumeration order."""
        if self.kind == "modular":
            return int(raw) % self.char
        if self.kind == "matrix":
            digits, base = [int(v) for v in self.decode(raw)], self.char
        else:
            digits, base = [int(c) for c in raw], self.gf.q
        value = 0
        for d in digits:
            value = value * base + d
        return value

    def unrank(self, i: int) -> object:
        if self.kind == "modular":
            return i
        if self.kind == "matrix":
            digits = []
            for _ in range(self.dim):
                digits.append(i % self.char)
                i //= self.char
            return self.encode(list(reversed(digits)))
        codes = []
        for _ in range(self.npoints):
            codes.append(i % self.gf.q)
            i //= self.gf.q
        return list(reversed(codes))

    def inverse(self, x: np.ndarray) -> np.ndarray:
        """Inverse of a unit matrix over F_p, by Gauss-Jordan elimination."""
        if self.kind != "matrix":
            raise ValueError("conjugating units are only read for matrix rings")
        k, p = self.k, self.char
        aug = [[int(x[i * k + j]) for j in range(k)] + [int(i == j) for j in range(k)]
               for i in range(k)]
        for col in range(k):
            piv = next(r for r in range(col, k) if aug[r][col] % p)
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = pow(aug[col][col], -1, p)
            aug[col] = [(v * inv) % p for v in aug[col]]
            for r in range(k):
                if r != col and aug[r][col]:
                    c = aug[r][col]
                    aug[r] = [(v - c * w) % p for v, w in zip(aug[r], aug[col])]
        return np.array([aug[i][k + j] for i in range(k) for j in range(k)], dtype=np.int64)


# the skew ring -----------------------------------------------------------------

class Algebra:
    """R = A x| G rebuilt from an instance description.

    ``desc`` is either an algebraic instance (``ring``, ``group``, ``action``)
    or a dynamical one (``dynamics`` with points, q, group and an ``act`` table
    or ``natural``). Each sigma_g is stored as a matrix over Z/char acting on
    coefficient coordinates.
    """

    def __init__(self, desc: dict) -> None:
        if "dynamics" in desc:
            dyn = desc["dynamics"]
            self.ring = CoefficientRing({"kind": "function", "points": dyn["points"],
                                         "q": dyn.get("q", 2)})
            self.group = Group(dyn["group"])
            npts = int(dyn["points"])
            if dyn.get("natural"):
                act = [[p[x] if x < len(p) else x for x in range(npts)] for p in self.group.perms]
            else:
                act = dyn["act"]
            self.act = [[int(x) for x in row] for row in act]
            # g sends f to f o g^-1
            point_maps = [self.act[self.group.inv[g]] for g in range(self.group.order)]
            self.sigma = [self._point_matrix(pm) for pm in point_maps]
        else:
            self.ring = CoefficientRing(desc["ring"])
            self.group = Group(desc["group"])
            self.act = None
            self.sigma = self._action_matrices(desc["action"])
        ring, group = self.ring, self.group
        self.char = ring.char
        self.dim = group.order * ring.dim
        self.size = ring.size ** group.order
        self.commutative = ring.commutative

    # actions ----------------------------------------------------------------
    def _point_matrix(self, point_map) -> np.ndarray:
        """sigma(f)[x] = f[point_map[x]] on function-ring coordinates."""
        m = self.ring.gf.m
        mat = np.zeros((self.ring.dim, self.ring.dim), dtype=np.int64)
        for x, src in enumerate(point_map):
            for t in range(m):
                mat[x * m + t, int(src) * m + t] = 1
        return mat

    def _action_matrices(self, desc: dict) -> list[np.ndarray]:
        ring, n = self.ring, self.group.order
        kind = desc["kind"]
        if kind == "trivial":
            return [np.eye(ring.dim, dtype=np.int64) for _ in range(n)]
        if kind == "permutation":
            return [self._point_matrix(p) for p in desc["perms"]]
        basis = [np.eye(ring.dim, dtype=np.int64)[i] for i in range(ring.dim)]
        mats = []
        for g in range(n):
            if kind == "conjugation":
                u = ring.decode(desc["units"][g])
                w = ring.inverse(u)
                cols = [ring.mul(ring.mul(u, b), w) for b in basis]
            elif kind == "table":
                table = desc["tables"][g]
                cols = [ring.decode(table[ring.rank_of(ring.encode(b))]) for b in basis]
            else:
                raise ValueError(f"unsupported action kind {kind!r}")
            mats.append(np.array(cols, dtype=np.int64).T % ring.char)
        return mats

    def sigma_is_homomorphism(self) -> bool:
        g_, c = self.group, self.char
        eye = np.eye(self.ring.dim, dtype=np.int64)
        if not np.array_equal(self.sigma[0] % c, eye):
            return False
        return all(np.array_equal(self.sigma[g_.mul[g][h]] % c,
                                  (self.sigma[g] @ self.sigma[h]) % c)
                   for g in range(g_.order) for h in range(g_.order))

    # elements: dense arrays of shape (|G|, dim A) ---------------------------
    def zero(self) -> np.ndarray:
        return np.zeros((self.group.order, self.ring.dim), dtype=np.int64)

    def decode_element(self, serialized) -> np.ndarray:
        """Element from the report serialization [[group name, payload], ...]."""
        r = self.zero()
        for gname, payload in serialized:
            r[self.group.index_of_name[gname]] = self.ring.decode(payload)
        return r

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """(a u_g)(b u_h) = a sigma_g(b) u_{gh}, extended bilinearly."""
        ring, table, c = self.ring, self.group.mul, self.char
        out = self.zero()
        xs = [g for g in range(self.group.order) if x[g].any()]
        ys = [h for h in range(self.group.order) if y[h].any()]
        for g in xs:
            for h in ys:
                gh = table[g][h]
                out[gh] = (out[gh] + ring.mul(x[g], (self.sigma[g] @ y[h]) % c)) % c
        return out

    def basis_monomials(self) -> list[np.ndarray]:
        out = []
        for g in range(self.group.order):
            for i in range(self.ring.dim):
                b = self.zero()
                b[g, i] = 1
                out.append(b)
        return out

    def ideal_rows(self, generators) -> list[np.ndarray]:
        """Additive generators {b r b'} of the two-sided ideal of the generators."""
        basis = self.basis_monomials()
        rows = []
        for r in generators:
            for b in basis:
                br = self.mul(b, r)
                if not br.any():
                    continue
                for b2 in basis:
                    rows.append(self.mul(br, b2).reshape(-1))
        return rows

    def primes(self) -> list[int]:
        n, out, d = self.char, [], 2
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            out.append(n)
        return out

    def ideal_is_proper(self, generators) -> bool:
        """Whether the ideal generated by the elements is not all of R."""
        rows = self.ideal_rows(generators)
        return any(rank_mod_p(rows, p, self.dim) < self.dim for p in self.primes())

    def in_ideal(self, generators, r: np.ndarray) -> bool:
        """Membership over a prime characteristic, by comparing ranks."""
        (p,) = self.primes()
        rows = self.ideal_rows(generators)
        base = rank_mod_p(rows, p, self.dim)
        return rank_mod_p(rows + [r.reshape(-1)], p, self.dim) == base

    def is_central(self, z: np.ndarray) -> bool:
        return all(np.array_equal(self.mul(b, z), self.mul(z, b))
                   for b in self.basis_monomials())

    def identity_coefficient_is_one(self, r: np.ndarray) -> bool:
        return np.array_equal(r[0] % self.char, self.ring.one)

    @staticmethod
    def support(r: np.ndarray) -> set[int]:
        return {g for g in range(r.shape[0]) if r[g].any()}

    # structural facts ---------------------------------------------------------
    def sigma_injective(self) -> bool:
        eye = np.eye(self.ring.dim, dtype=np.int64)
        return not any(np.array_equal(self.sigma[g] % self.char, eye)
                       for g in range(1, self.group.order))

    def point_permutations(self) -> list[list[int]] | None:
        """For a function ring whose sigma_g permute points without twisting
        the field: the point map x -> pi_g(x) with sigma_g(delta_x) =
        delta_pi(x); otherwise None."""
        if self.ring.kind != "function":
            return None
        m, npts = self.ring.gf.m, self.ring.npoints
        out = []
        for mat in self.sigma:
            pi = []
            for x in range(npts):
                col = mat[:, x * m]
                hits = [y for y in range(npts) if col[y * m] == 1]
                if len(hits) != 1 or int(col.sum()) != 1:
                    return None
                pi.append(hits[0])
            expect = np.zeros_like(mat)
            for x, y in enumerate(pi):
                for t in range(m):
                    expect[y * m + t, x * m + t] = 1
            if not np.array_equal(mat % self.char, expect):
                return None
            out.append(pi)
        return out

    def point_orbits(self) -> int | None:
        pis = self.point_permutations()
        if pis is None:
            return None
        seen, orbits = set(), 0
        for x in range(self.ring.npoints):
            if x in seen:
                continue
            orbits += 1
            seen.update(pi[x] for pi in pis)
        return orbits

    def g_simple(self) -> bool:
        """Whether A has no proper nonzero G-stable ideal."""
        kind = self.ring.kind
        if kind == "modular":
            return len(self.primes()) == 1 and self.primes()[0] == self.char
        if kind == "matrix":
            return True
        if self.ring.npoints == 1:
            return True  # a field
        orbits = self.point_orbits()
        if orbits is None:
            raise ValueError("function-ring action twists the field; not covered")
        return orbits == 1

    def regular(self) -> bool:
        """Points permuted freely and transitively (F_q^X x| G = M_|X|(F_q))."""
        pis = self.point_permutations()
        if pis is None:
            return False
        npts = self.ring.npoints
        if npts != self.group.order:
            return False
        free = all(all(pi[x] != x for x in range(npts)) for pi in pis[1:])
        return free and self.point_orbits() == 1


def rank_mod_p(rows, p: int, dim: int) -> int:
    """Rank over F_p of the given integer vectors (vectorised elimination)."""
    if not rows:
        return 0
    mat = np.unique(np.asarray(rows, dtype=np.int64) % p, axis=0)
    mat = mat[mat.any(axis=1)]
    rank = 0
    for col in range(dim):
        if rank == mat.shape[0]:
            break
        nz = np.flatnonzero(mat[rank:, col])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            mat[[rank, piv]] = mat[[piv, rank]]
        mat[rank] = (mat[rank] * pow(int(mat[rank, col]), -1, p)) % p
        coeffs = mat[:, col].copy()
        coeffs[rank] = 0
        hit = np.flatnonzero(coeffs)
        if hit.size:
            mat[hit] = (mat[hit] - np.outer(coeffs[hit], mat[rank])) % p
        rank += 1
    return rank


# dynamics ------------------------------------------------------------------------

def transitive_faithful_free(act, group: Group) -> tuple[bool, bool, bool]:
    """(minimal, faithful, free) of a point action table, by definition."""
    npts = len(act[0])
    orbit = {act[g][0] for g in range(group.order)}
    minimal = len(orbit) == npts
    moved = [[x for x in range(npts) if act[g][x] != x] for g in range(group.order)]
    faithful = all(moved[g] for g in range(1, group.order))
    free = all(len(moved[g]) == npts for g in range(1, group.order))
    return minimal, faithful, free


def self_test() -> list[str]:
    """The verifier must accept a genuine witness and reject a tampered one.

    F_2[Z/2] (trivial action) is not simple: 1 + u_1 generates the
    augmentation ideal. Replacing that witness by 1, which generates R, must be
    rejected; so must the claim that the simple swap algebra F_2^2 x| Z/2 has a
    proper ideal generated by 1 + u_1.
    """
    problems = []
    trivial = Algebra({"ring": {"kind": "function", "points": 1, "q": 2},
                       "group": {"kind": "cyclic_product", "orders": [2]},
                       "action": {"kind": "trivial"}})
    genuine = trivial.decode_element([["0", [1]], ["1", [1]]])
    tampered = trivial.decode_element([["0", [1]]])
    if not trivial.ideal_is_proper([genuine]):
        problems.append("self-test: genuine witness 1 + u_1 rejected")
    if trivial.ideal_is_proper([tampered]):
        problems.append("self-test: tampered witness 1 (generates R) accepted")
    swap = Algebra({"ring": {"kind": "function", "points": 2, "q": 2},
                    "group": {"kind": "cyclic_product", "orders": [2]},
                    "action": {"kind": "permutation", "perms": [[0, 1], [1, 0]]}})
    if swap.ideal_is_proper([swap.decode_element([["0", [1, 1]], ["1", [1, 1]]])]):
        problems.append("self-test: witness in a simple ring accepted")
    if not swap.regular() or trivial.regular():
        problems.append("self-test: regular-action test is wrong")
    return problems
