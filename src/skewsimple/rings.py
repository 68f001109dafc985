"""Finite unital coefficient rings: residues Z/n, matrix rings over F_p, and
function rings F_q^X, with exact payload arithmetic, enumeration, units,
ideals, centre and twisted centralizers, and the sweep for the first nonzero
element whose closure is a proper ideal.

Payload encodings are canonical (ints for residues, flat row-major tuples for
matrices, per-point code tuples for functions), so element equality is payload
equality and enumeration order is lexicographic on payloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .closure import INT64_LIMIT, ClosureEngine, HowellBasis, kernel_basis
from .config import Caps
from .errors import CapacityError, DomainError
from .gf import MAX_FIELD_ORDER, GaloisField, field, prime_power


# The first 13 primes as Miller-Rabin bases decide primality exactly below
# 3317044064679887385961981, the least strong pseudoprime to all of them
# (Sorenson & Webster 2017, "Strong pseudoprimes to twelve prime bases"); the
# first 12 are fooled by 318665857834031151167461.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981

# the most coordinates of a skew ring A x| G built here (|G| * dim_A), hence
# of a ring whose structure constants, 2 dim^3 entries, are built
MAX_DIM = 256


def _is_prime(n: int) -> bool:
    """Primality by deterministic Miller-Rabin, exact for every n below
    PRIME_TEST_BOUND; larger n is refused."""
    if n >= PRIME_TEST_BOUND:
        raise CapacityError("modulus", PRIME_TEST_BOUND - 1, n, "primality test")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d % 2:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_modulus(n: int) -> None:
    """Refuse a coordinate modulus that int64 cannot hold; coordinates over
    Z/n are int64 arrays (products of them are guarded per use by
    ``closure.check_int64``)."""
    if n >= INT64_LIMIT:
        raise CapacityError("modulus", INT64_LIMIT - 1, n, "int64 coordinates")


class RingSpec:
    """Common interface of the three coefficient ring families.

    Subclasses provide payload-level arithmetic plus the additive coordinate
    maps (``to_vec``/``from_vec`` over Z/char) that the closure engines use.
    """

    size: int
    char: int           # additive exponent: payload vectors live over Z/char
    dim: int            # length of the additive coordinate vector
    is_commutative: bool
    descriptor: tuple

    def __init__(self, caps: Caps | None = None) -> None:
        self.caps = caps or Caps.from_env()

    # payload arithmetic -------------------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def one(self):
        raise NotImplementedError

    def try_invert_payload(self, a):
        """Two-sided inverse payload, or None when a is not a unit."""
        raise NotImplementedError

    # enumeration --------------------------------------------------------
    def check_enumerable(self, what: str = "ring enumeration") -> None:
        if self.size > self.caps.enumeration:
            raise CapacityError("enumeration", self.caps.enumeration, self.size, what)

    def payloads(self) -> Iterator:
        """All payloads in canonical (lexicographic) order; cap-checked."""
        self.check_enumerable()
        for i in range(self.size):
            yield self.unrank(i)

    def rank(self, a) -> int:
        raise NotImplementedError

    def unrank(self, i: int):
        raise NotImplementedError

    # additive coordinates -----------------------------------------------
    def to_vec(self, a) -> tuple[int, ...]:
        raise NotImplementedError

    def from_vec(self, vec: Sequence[int]):
        raise NotImplementedError

    def additive_generators(self) -> tuple:
        """Canonical additive generating payloads (a Z/char module basis)."""
        return self._additive_generators

    @cached_property
    def _additive_generators(self) -> tuple:
        return tuple(self.from_vec(tuple(1 if j == i else 0 for j in range(self.dim)))
                     for i in range(self.dim))

    @cached_property
    def structure_constants(self) -> tuple[np.ndarray, np.ndarray]:
        """(lefts, rights) over Z/char: lefts[s] (rights[s]) is the dim x dim
        matrix of a -> b_s a (of a -> a b_s), b_s the s-th additive generator.
        Refused above MAX_DIM coordinates, before anything is built."""
        if self.dim > MAX_DIM:
            raise CapacityError("dimension", MAX_DIM, self.dim, "structure constants")
        gens = self.additive_generators()
        lefts = np.array([[self.to_vec(self.mul(b, c)) for c in gens] for b in gens])
        rights = lefts if self.is_commutative else np.array(
            [[self.to_vec(self.mul(c, b)) for c in gens] for b in gens])
        return tuple(m.astype(np.int64).transpose(0, 2, 1) % self.char for m in (lefts, rights))

    @cached_property
    def ideal_operators(self) -> list[np.ndarray]:
        """Left and right multiplication by each additive generator, in
        pairs (left alone when the ring is commutative): a submodule stable
        under these is a two-sided ideal."""
        lefts, rights = self.structure_constants
        pairs = zip(lefts) if self.is_commutative else zip(lefts, rights)
        return [op for pair in pairs for op in pair]

    @cached_property
    def ideal_engine(self) -> ClosureEngine:
        """Closures under ``ideal_operators``."""
        return ClosureEngine(self.char, self.dim, self.ideal_operators)

    @cached_property
    def rank_columns(self) -> np.ndarray:
        """The coordinates holding a payload's rank digits, most significant
        first. In every family a payload's vector is a fixed permutation of
        its rank's base-char digits (function rings spell each point's code
        little-endian), read off the payloads whose ranks are powers of char;
        so ranks compare as these columns compare lexicographically."""
        return np.array([self.to_vec(self.unrank(self.char ** k)).index(1)
                         for k in range(self.dim - 1, -1, -1)], dtype=np.intp)

    @cached_property
    def payload_vectors(self) -> np.ndarray:
        """The coordinate vectors of all payloads in rank order, (size x dim):
        each rank's base-char digits placed in ``rank_columns``."""
        self.check_enumerable("payload vectors")
        places = self.char ** np.arange(self.dim - 1, -1, -1, dtype=np.int64)
        vecs = np.zeros((self.size, self.dim), dtype=np.int64)
        vecs[:, self.rank_columns] = (np.arange(self.size, dtype=np.int64)[:, None]
                                      // places) % self.char
        return vecs

    def members(self, basis: HowellBasis, what: str) -> list:
        """The payloads of a submodule of A's coordinates, in rank order;
        cap-checked on the submodule's size as ``what``."""
        vecs = basis.sorted_members(self.rank_columns, self.caps.enumeration, what)
        return [self.from_vec(v) for v in vecs.tolist()]

    # twisted centralizers -------------------------------------------------
    def twisted_centralizer(self, S: np.ndarray) -> HowellBasis:
        """{a : b a = a S(b) for every b}, for the additive map with matrix S
        over Z/char, as a Howell basis: the kernel of a -> (b_t a - a S(b_t))_t
        over the basis payloads b_t, which suffices as both sides are linear
        in b. S = id gives the centre; S = sigma_g gives the slot C_g of the
        centralizer of A in A x| G, and sigma_g is inner exactly when C_g
        holds a unit."""
        n, d = self.char, self.dim
        lefts, rights = self.structure_constants
        # a -> a S(b_t) is the sum over s of S[s, t] times a -> a b_s
        commutators = lefts - (S.T @ rights.reshape(d, d * d)).reshape(d, d, d)
        # row i of the images is the commutators applied to e_i, side by side
        images = commutators.transpose(2, 0, 1).reshape(d, d * d) % n
        return kernel_basis(n, np.eye(d, dtype=np.int64), images)

    @cached_property
    def center_basis(self) -> HowellBasis:
        """The centre Z(A) as a Howell basis: the twisted centralizer of the
        identity, which for a commutative A is all of A, the identity rows.
        Above MAX_DIM coordinates it goes to the kernel, whose structure
        constants are refused there."""
        eye = np.eye(self.dim, dtype=np.int64)
        if self.is_commutative and self.dim <= MAX_DIM:
            return HowellBasis.from_rows(self.char, self.dim, eye, range(self.dim),
                                         [1] * self.dim)
        return self.twisted_centralizer(eye)

    # presentation --------------------------------------------------------
    def label(self, a) -> str:
        raise NotImplementedError

    def element(self, payload) -> "RingElement":
        return RingElement(self, payload)

    @property
    def zero_element(self) -> "RingElement":
        return RingElement(self, self.zero)

    @property
    def one_element(self) -> "RingElement":
        return RingElement(self, self.one)

    @cached_property
    def units(self) -> tuple:
        """All unit payloads in canonical order; cap-checked."""
        self.check_enumerable("unit enumeration")
        return tuple(a for a in self.payloads() if self.try_invert_payload(a) is not None)

    def __eq__(self, other) -> bool:
        return isinstance(other, RingSpec) and self.descriptor == other.descriptor

    def __hash__(self) -> int:
        return hash(self.descriptor)

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.descriptor[1:]}"


class ModularRing(RingSpec):
    """Z/n with integer payloads 0..n-1."""

    def __init__(self, n: int, caps: Caps | None = None) -> None:
        if n < 2:
            raise DomainError(f"modulus must be at least 2, got {n}")
        _check_modulus(n)
        super().__init__(caps)
        self.n = n
        self.size = n
        self.char = n
        self.dim = 1
        self.is_commutative = True
        self.descriptor = ("modular", n)

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def try_invert_payload(self, a):
        try:
            return pow(a, -1, self.n)
        except ValueError:
            return None

    def rank(self, a) -> int:
        return a

    def unrank(self, i: int):
        return i

    def to_vec(self, a):
        return (a,)

    def from_vec(self, vec):
        return vec[0] % self.n

    def label(self, a) -> str:
        return str(a)


class MatrixRing(RingSpec):
    """k-by-k matrices over F_p, payloads as flat row-major tuples."""

    def __init__(self, k: int, p: int, caps: Caps | None = None) -> None:
        if k < 1:
            raise DomainError(f"matrix size must be at least 1, got {k}")
        _check_modulus(p)
        if not _is_prime(p):
            raise DomainError(f"matrix ring base must be prime, got {p}")
        super().__init__(caps)
        self.k = k
        self.p = p
        self.size = p ** (k * k)
        self.char = p
        self.dim = k * k
        self.is_commutative = k == 1
        self.descriptor = ("matrix", k, p)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        k, p = self.k, self.p
        out = [0] * (k * k)
        for i in range(k):
            for j in range(k):
                s = 0
                for t in range(k):
                    s += a[i * k + t] * b[t * k + j]
                out[i * k + j] = s % p
        return tuple(out)

    @property
    def zero(self):
        return (0,) * (self.k * self.k)

    @cached_property
    def one(self):
        k = self.k
        return tuple(1 if i % (k + 1) == 0 else 0 for i in range(k * k))

    def try_invert_payload(self, a):
        # Gauss-Jordan on [a | I] over F_p.
        k, p = self.k, self.p
        aug = [[a[i * k + j] for j in range(k)] + [1 if j == i else 0 for j in range(k)]
               for i in range(k)]
        for col in range(k):
            pivot = next((r for r in range(col, k) if aug[r][col]), None)
            if pivot is None:
                return None
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = pow(aug[col][col], -1, p)
            aug[col] = [(x * inv) % p for x in aug[col]]
            for r in range(k):
                if r != col and aug[r][col]:
                    c = aug[r][col]
                    aug[r] = [(x - c * y) % p for x, y in zip(aug[r], aug[col])]
        return tuple(aug[i][k + j] for i in range(k) for j in range(k))

    def rank(self, a) -> int:
        value = 0
        for x in a:
            value = value * self.p + x
        return value

    def unrank(self, i: int):
        out = []
        for _ in range(self.k * self.k):
            out.append(i % self.p)
            i //= self.p
        return tuple(reversed(out))

    def to_vec(self, a):
        return a

    def from_vec(self, vec):
        return tuple(x % self.p for x in vec)

    def label(self, a) -> str:
        k = self.k
        rows = ["[" + ",".join(str(a[i * k + j]) for j in range(k)) + "]" for i in range(k)]
        return "[" + ",".join(rows) + "]"


class FunctionRing(RingSpec):
    """F_q-valued functions on a finite point set, pointwise operations.

    Payloads are tuples of GF(q) element codes indexed by the points.
    """

    def __init__(self, points: int | Sequence[str], q: int, caps: Caps | None = None) -> None:
        if isinstance(points, int):
            if points < 1:
                raise DomainError(f"point set must be non-empty, got {points} points")
            point_labels = tuple(f"x{i}" for i in range(points))
        else:
            point_labels = tuple(str(s) for s in points)
            if not point_labels:
                raise DomainError("point set must be non-empty")
            if len(set(point_labels)) != len(point_labels):
                raise DomainError("point labels must be distinct")
        super().__init__(caps)
        self.points = point_labels
        self.gf: GaloisField = field(q)
        self.q = q
        npts = len(point_labels)
        self.size = q**npts
        self.char = self.gf.p
        self.dim = npts * self.gf.degree
        self.is_commutative = True
        self.descriptor = ("function", point_labels, q)

    def add(self, a, b):
        g = self.gf
        return tuple(g.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        g = self.gf
        return tuple(g.neg(x) for x in a)

    def mul(self, a, b):
        g = self.gf
        return tuple(g.mul(x, y) for x, y in zip(a, b))

    @property
    def zero(self):
        return (0,) * len(self.points)

    @property
    def one(self):
        return (1,) * len(self.points)

    def try_invert_payload(self, a):
        if any(x == 0 for x in a):
            return None
        g = self.gf
        return tuple(g.inv(x) for x in a)

    def rank(self, a) -> int:
        value = 0
        for x in a:
            value = value * self.q + x
        return value

    def unrank(self, i: int):
        out = []
        for _ in range(len(self.points)):
            out.append(i % self.q)
            i //= self.q
        return tuple(reversed(out))

    def to_vec(self, a):
        out: list[int] = []
        for x in a:
            out.extend(self.gf.to_digits(x))
        return tuple(out)

    def from_vec(self, vec):
        m = self.gf.degree
        return tuple(self.gf.from_digits(vec[i * m:(i + 1) * m]) for i in range(len(self.points)))

    def indicator(self, point_index: int):
        """The characteristic function of a single point."""
        return tuple(1 if i == point_index else 0 for i in range(len(self.points)))

    def label(self, a) -> str:
        return "(" + ",".join(str(x) for x in a) + ")"


def descriptor_int(value, name: str) -> int:
    """value, a number read from an instance file, when it is an integer.
    JSON numbers such as 2.5, and booleans, are refused rather than truncated
    (``int`` would build Z/5 from n = 5.5 while the report shows 5.5)."""
    if type(value) is not int:   # bool is a subclass of int
        raise DomainError(f"{name} must be an integer, got {json.dumps(value, default=repr)[:40]}")
    return value


def _descriptor_points(desc: dict) -> int | list[str]:
    """The points of a function-ring descriptor: a count or a list of labels."""
    points = desc["points"]
    if type(points) is int or isinstance(points, list) and all(isinstance(s, str) for s in points):
        return points
    raise DomainError(f"points must be an integer or a list of labels, got "
                      f"{json.dumps(points, default=repr)[:40]}")


def descriptor_dim(desc: dict) -> int:
    """dim_A of the ring an instance-file descriptor names, read off the
    descriptor without building anything: points * log_p q for F_q^X, size^2
    for M_k(F_p), 1 for Z/n. For a descriptor its constructor refuses, this
    is at most what the descriptor claims (a q outside the supported fields
    counts as degree 1), so the constructor still names the error. Numbers
    that are not integers are refused here (``descriptor_int``)."""
    kind = desc.get("kind")
    if kind == "matrix":
        return max(descriptor_int(desc["size"], "size"), 0) ** 2
    if kind == "function":
        points, q = _descriptor_points(desc), descriptor_int(desc["q"], "q")
        npts = points if isinstance(points, int) else len(points)
        return npts * (prime_power(q)[1] if 2 <= q <= MAX_FIELD_ORDER else 1)
    return 1


def ring_from_descriptor(desc: dict, caps: Caps | None = None) -> RingSpec:
    """Build a ring from its instance-file descriptor."""
    kind = desc.get("kind")
    if kind == "modular":
        return ModularRing(descriptor_int(desc["n"], "n"), caps)
    if kind == "matrix":
        return MatrixRing(descriptor_int(desc["size"], "size"),
                          descriptor_int(desc["prime"], "prime"), caps)
    if kind == "function":
        return FunctionRing(_descriptor_points(desc), descriptor_int(desc["q"], "q"), caps)
    raise DomainError(f"unknown ring kind {kind!r}")


class RingElement:
    """A payload tagged with its ring; supports +, -, * and unary negation."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring: RingSpec, payload) -> None:
        self.ring = ring
        self.payload = payload

    def _coerce(self, other, op: str):
        if not isinstance(other, RingElement):
            raise DomainError(f"cannot {op} RingElement with {type(other).__name__}")
        if other.ring != self.ring:
            raise DomainError(f"cannot {op} elements of {self.ring!r} and {other.ring!r}")
        return other

    def __add__(self, other):
        other = self._coerce(other, "add")
        return RingElement(self.ring, self.ring.add(self.payload, other.payload))

    def __sub__(self, other):
        other = self._coerce(other, "subtract")
        return RingElement(self.ring, self.ring.sub(self.payload, other.payload))

    def __mul__(self, other):
        other = self._coerce(other, "multiply")
        return RingElement(self.ring, self.ring.mul(self.payload, other.payload))

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.payload))

    def __eq__(self, other):
        return (isinstance(other, RingElement) and other.ring == self.ring
                and other.payload == self.payload)

    def __hash__(self):
        return hash((self.ring.descriptor, self.payload))

    def is_zero(self) -> bool:
        return self.payload == self.ring.zero

    def __repr__(self):
        return f"<{self.ring.label(self.payload)} in {self.ring!r}>"


def enumerate_elements(ring: RingSpec) -> list[RingElement]:
    """Every ring element exactly once, in canonical order (cap-checked)."""
    return [ring.element(a) for a in ring.payloads()]


def try_invert(a: RingElement) -> RingElement | None:
    """Inverse element, or None when a is not a unit; verified by multiplying."""
    inv = a.ring.try_invert_payload(a.payload)
    if inv is None:
        return None
    assert a.ring.mul(a.payload, inv) == a.ring.one
    assert a.ring.mul(inv, a.payload) == a.ring.one
    return a.ring.element(inv)


@dataclass(frozen=True)
class TwoSidedIdeal:
    """A two-sided ideal, held as a Howell basis over the ring's additive
    coordinates (as ``skew.SkewIdeal`` is); its members are materialized on
    first use."""

    ring: RingSpec
    generators: tuple
    basis: HowellBasis

    @property
    def size(self) -> int:
        return self.basis.size

    @property
    def is_full(self) -> bool:
        return self.basis.is_full

    @property
    def is_zero(self) -> bool:
        return self.size == 1

    def contains(self, a) -> bool:
        payload = a.payload if isinstance(a, RingElement) else a
        return self.basis.contains(self.ring.to_vec(payload))

    @cached_property
    def elements(self) -> frozenset:
        """Every member payload; cap-checked on the ideal's size."""
        return frozenset(self.ring.members(self.basis, "ideal materialization"))


def engine_ideal(ring: RingSpec, engine: ClosureEngine, generators: Iterable) -> TwoSidedIdeal:
    """The closure of the generators (elements or payloads) under the engine's
    operators."""
    gens = tuple(g.payload if isinstance(g, RingElement) else g for g in generators)
    return TwoSidedIdeal(ring, gens, engine.closure([ring.to_vec(a) for a in gens]))


def first_proper_ideal(ring: RingSpec, engine: ClosureEngine, what: str) -> TwoSidedIdeal | None:
    """The closure of the first nonzero payload (canonical order) whose closure
    under the engine is proper, generated by that payload; None when every
    closure is the whole ring. Cap-checked as ``what``."""
    ring.check_enumerable(what)
    for i in range(1, ring.size):
        a = ring.unrank(i)
        basis = engine.closure([ring.to_vec(a)])
        if not basis.is_full:
            return TwoSidedIdeal(ring, (a,), basis)
    return None


def ideal_closure(ring: RingSpec, generators: Iterable) -> TwoSidedIdeal:
    """Smallest two-sided ideal containing the generators.

    The additive span closed under left/right multiplication by the ring's
    canonical additive generators, which suffices by distributivity.
    """
    return engine_ideal(ring, ring.ideal_engine, generators)


def center(ring: RingSpec) -> list[RingElement]:
    """The elements commuting with the whole ring, in canonical order: the
    members of ``RingSpec.center_basis``, cap-checked on |Z(A)|."""
    return [ring.element(a) for a in ring.members(ring.center_basis, "centre computation")]
