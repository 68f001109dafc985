"""Group actions on coefficient rings by automorphisms.

An ActionMap stores one RingAutomorphism per group element and exposes the
kernel, fixed ring, G-simplicity verdict and the inner/outer classification.
The fixed ring, the fixed centre Z(A)^G and the classification are kernels of
linear maps on A's coordinates, so none enumerates A. G-simplicity is the
field test of Z(A)^G, decided at any |A|; only a witness under the
enumeration cap comes from a sweep of A. Validation is lazy and cached;
anything that relies on the homomorphism law revalidates first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .closure import INT64_LIMIT, ClosureEngine, HowellBasis, field_obstruction, kernel_basis
from .errors import ActionValidationError, CapacityError, DomainError
from .groups import GroupTable, Subgroup
from .rings import (MAX_DIM, FunctionRing, MatrixRing, ModularRing, RingElement, RingSpec,
                    TwoSidedIdeal, descriptor_int, engine_ideal, first_proper_ideal)

# entries of the matrix products one step of the homomorphism-law check holds
_LAW_BLOCK = 1 << 20


class RingAutomorphism:
    """A ring automorphism given structurally or as a full image table.

    Structural kinds (identity, conjugation by a unit, coordinate permutation)
    are automorphisms by construction; table and scaling kinds get their
    morphism properties checked during action validation.
    """

    def __init__(self, ring: RingSpec, kind: str, params: tuple, apply_fn) -> None:
        self.ring = ring
        self.kind = kind
        self.params = params
        self.apply = apply_fn   # payload -> image payload

    # constructors --------------------------------------------------------
    @classmethod
    def identity(cls, ring: RingSpec) -> "RingAutomorphism":
        return cls(ring, "identity", (), lambda a: a)

    @classmethod
    def conjugation(cls, ring: RingSpec, unit_payload) -> "RingAutomorphism":
        inv = ring.try_invert_payload(unit_payload)
        if inv is None:
            raise DomainError(
                f"conjugation element {ring.label(unit_payload)} is not a unit")

        def apply(a, v=unit_payload, w=inv, mul=ring.mul):
            return mul(mul(v, a), w)

        return cls(ring, "conjugation", (unit_payload,), apply)

    @classmethod
    def coordinate_permutation(cls, ring: FunctionRing, perm: Sequence[int]) -> "RingAutomorphism":
        if not isinstance(ring, FunctionRing):
            raise DomainError("coordinate permutations require a function ring")
        perm = tuple(int(x) for x in perm)
        if sorted(perm) != list(range(len(ring.points))):
            raise DomainError(f"{perm} is not a permutation of the point set")

        def apply(a, perm=perm):
            return tuple(a[p] for p in perm)

        return cls(ring, "permutation", (perm,), apply)

    @classmethod
    def unit_scaling(cls, ring: ModularRing, unit: int) -> "RingAutomorphism":
        if not isinstance(ring, ModularRing):
            raise DomainError("unit scaling is defined for residue rings only")
        if ring.try_invert_payload(unit % ring.n) is None:
            raise DomainError(f"{unit} is not a unit modulo {ring.n}")

        def apply(a, u=unit % ring.n, n=ring.n):
            return (u * a) % n

        return cls(ring, "scaling", (unit % ring.n,), apply)

    @classmethod
    def from_table(cls, ring: RingSpec, images: Sequence) -> "RingAutomorphism":
        ring.check_enumerable("automorphism table")
        if len(images) != ring.size:
            raise DomainError(
                f"automorphism table has {len(images)} entries, ring has {ring.size}")
        table = {ring.unrank(i): img for i, img in enumerate(images)}

        def apply(a, table=table):
            return table[a]

        return cls(ring, "table", (tuple(images),), apply)

    @property
    def structural(self) -> bool:
        return self.kind in ("identity", "conjugation", "permutation")

    def is_identity(self) -> bool:
        """Identity test; sound on additive maps via the generator check."""
        return all(self.apply(b) == b for b in self.ring.additive_generators())

    def matrix(self) -> np.ndarray:
        """The map as a dim x dim matrix over Z/char (automorphisms are
        additive); built once, and refused above MAX_DIM coordinates."""
        return self._matrix

    @cached_property
    def _matrix(self) -> np.ndarray:
        ring = self.ring
        if ring.dim > MAX_DIM:
            raise CapacityError("dimension", MAX_DIM, ring.dim, "automorphism matrix")
        if self.kind == "permutation":
            # coordinate j of point i is read from coordinate j of point perm[i]
            m = ring.gf.degree
            perm = np.array(self.params[0], dtype=np.intp)
            return np.eye(ring.dim, dtype=np.int64)[(perm[:, None] * m + np.arange(m)).ravel()]
        cols = [ring.to_vec(self.apply(b)) for b in ring.additive_generators()]
        return np.array(cols, dtype=np.int64).T % ring.char

    @cached_property
    def centralizer(self) -> HowellBasis:
        """C = {a : b a = a sigma(b) for all b}, the twisted centralizer of
        this map (``RingSpec.twisted_centralizer``); the centre when the map
        is the identity."""
        ring = self.ring
        if self.kind == "identity" or np.array_equal(self.matrix(),
                                                      np.eye(ring.dim, dtype=np.int64)):
            return ring.center_basis
        return ring.twisted_centralizer(self.matrix())

    def __repr__(self) -> str:
        return f"RingAutomorphism({self.kind}{self.params!r} on {self.ring!r})"


@dataclass(frozen=True)
class ActionViolation:
    """Witness that an action table breaks a law: a payload, and a second
    one (``other``) when the law fails on a pair."""

    law: str
    g: int | None = None
    h: int | None = None
    payload: object = None
    other: object = None

    def describe(self, group: GroupTable | None = None, ring: RingSpec | None = None) -> str:
        parts = [self.law]
        if group is not None and self.g is not None:
            parts.append(f"g={group.name(self.g)}")
        if group is not None and self.h is not None:
            parts.append(f"h={group.name(self.h)}")
        if ring is not None and self.payload is not None:
            parts.append(f"a={ring.label(self.payload)}")
        if ring is not None and self.other is not None:
            parts.append(f"b={ring.label(self.other)}")
        return ", ".join(parts)


class ActionMap:
    """The homomorphism sending each group element to a ring automorphism."""

    def __init__(self, group: GroupTable, ring: RingSpec,
                 autos: Sequence[RingAutomorphism]) -> None:
        if len(autos) != group.order:
            raise DomainError(f"need {group.order} automorphisms, got {len(autos)}")
        for auto in autos:
            if auto.ring != ring:
                raise DomainError("automorphism ring does not match the action ring")
        self.group = group
        self.ring = ring
        self.autos = tuple(autos)
        self._violation: ActionViolation | None = None
        self._validated = False

    def apply(self, g: int, a):
        return self.autos[g].apply(a)

    # validation -----------------------------------------------------------
    def validate(self) -> ActionViolation | None:
        """Check the automorphism and homomorphism laws; None means valid."""
        if self._validated:
            return self._violation
        self._violation = self._find_violation()
        self._validated = True
        return self._violation

    def ensure_valid(self) -> None:
        violation = self.validate()
        if violation is not None:
            raise ActionValidationError(
                "invalid action: " + violation.describe(self.group, self.ring), violation)

    def _find_violation(self) -> ActionViolation | None:
        """The automorphism laws, then sigma_e = id and sigma_gh = sigma_g
        sigma_h. Each automorphism then equals its matrix (structural kinds
        are additive by construction, the others were just checked), so the
        last two are matrix identities, whose column j is the image of the
        j-th additive generator; the first failing (g, h, generator) is
        reported in that loop order."""
        ring, group = self.ring, self.group
        for g, auto in enumerate(self.autos):
            bad = self._check_automorphism(g, auto)
            if bad is not None:
                return bad
        n, gens = ring.char, ring.additive_generators()
        mats = np.stack([auto.matrix() for auto in self.autos])
        if ring.dim * (n - 1) ** 2 >= INT64_LIMIT:
            mats = mats.astype(object)   # exact products for wide moduli
        wrong = (mats[0] != np.eye(ring.dim, dtype=np.int64)).any(axis=0)
        if wrong.any():
            return ActionViolation("identity automorphism expected at e", 0, None,
                                   gens[int(np.argmax(wrong))])
        # every product sigma_g sigma_h in one broadcast, in blocks of g only
        # when |G|^2 dim^2 entries would not fit in _LAW_BLOCK
        order, table = group.order, np.array(group.mul_table)
        step = max(1, _LAW_BLOCK // (order * ring.dim ** 2))
        for lo in range(0, order, step):
            products = np.matmul(mats[lo:lo + step, None], mats[None]) % n
            wrong = (products != mats[table[lo:lo + step]]).any(axis=2)
            if wrong.any():
                g, h, j = (int(i) for i in np.argwhere(wrong)[0])
                return ActionViolation("homomorphism law fails", lo + g, h, gens[j])
        return None

    def _check_automorphism(self, g: int, auto: RingAutomorphism) -> ActionViolation | None:
        """Bijective, fixes 1, additive and multiplicative, each decided
        exactly: additive maps are exactly the linear maps, so auto is
        additive iff it agrees with ``auto.matrix()`` on every payload; both
        sides of f(ab) = f(a)f(b) are then bilinear, so the pairs of additive
        generators decide multiplicativity."""
        ring = self.ring
        if auto.structural:
            return None
        ring.check_enumerable("automorphism validation")
        ranks = np.array([ring.rank(auto.apply(a)) for a in ring.payloads()], dtype=np.int64)
        if not np.array_equal(np.sort(ranks), np.arange(ring.size)):
            return ActionViolation("automorphism not bijective", g)
        if auto.apply(ring.one) != ring.one:
            return ActionViolation("automorphism does not fix 1", g, None, ring.one)
        vecs = ring.payload_vectors
        wrong = np.flatnonzero(((vecs @ auto.matrix().T) % ring.char != vecs[ranks]).any(axis=1))
        if wrong.size:
            return ActionViolation("automorphism not additive", g, None,
                                   ring.unrank(int(wrong[0])))
        gens = ring.additive_generators()
        for a in gens:
            for b in gens:
                if auto.apply(ring.mul(a, b)) != ring.mul(auto.apply(a), auto.apply(b)):
                    return ActionViolation("automorphism not multiplicative", g, None, a, b)
        return None

    @cached_property
    def ideal_engine(self) -> ClosureEngine:
        """Closures under the ring's ideal operators and the automorphisms of
        a generating set of the group (stability under those gives the rest)."""
        ring = self.ring
        ops = ring.ideal_operators + [self.autos[g].matrix() for g in self.group.generators]
        return ClosureEngine(ring.char, ring.dim, ops)

    def fixed_space(self, rows) -> HowellBasis:
        """The members of the span of rows (coordinate vectors over Z/char)
        fixed by every automorphism, as a Howell basis: the kernel of
        x -> (sigma_g(x) - x) over ``group.generators``, which suffices as
        sigma is a homomorphism."""
        ring = self.ring
        rows = np.asarray(rows, dtype=np.int64)
        shifts = [(self.autos[g].matrix() - np.eye(ring.dim, dtype=np.int64)).T
                  for g in self.group.generators]
        images = np.concatenate([rows @ m for m in shifts], axis=1) if shifts else rows[:, :0]
        return kernel_basis(ring.char, rows, images % ring.char)

    @cached_property
    def fixed_center(self) -> tuple[HowellBasis, np.ndarray | None]:
        """Z(A)^G, the fixed space of the centre, as a Howell basis, with its
        field obstruction (``closure.field_obstruction``): the coordinates of
        a nonzero non-unit of Z(A)^G, p*1 in composite characteristic, or
        None when Z(A)^G is a field."""
        ring = self.ring
        n, d = ring.char, ring.dim
        fixed = self.fixed_space(ring.center_basis.rows)
        # x -> z x is sum_s z_s lefts[s], one product on the flattened lefts
        lefts = ring.structure_constants[0].reshape(d, d * d)
        obstruction = field_obstruction(
            n, fixed.rows, np.array(ring.to_vec(ring.one), dtype=np.int64),
            lambda z: (z @ lefts).reshape(d, d) % n)
        return fixed, obstruction

    @cached_property
    def g_simplicity(self) -> "GSimplicity":
        """The G-simplicity verdict with its witness (see ``is_G_simple``).

        Every supported A is semisimple in prime characteristic: its ideals
        are sums of its simple blocks, which G permutes, so the G-stable
        ideals match the idempotents of Z(A)^G, and A is G-simple iff char A
        is prime and Z(A)^G is a field. A nonzero non-unit z of Z(A)^G
        generates the proper G-stable ideal zA (a unit z would have its
        inverse in Z(A)^G), and so does p*1 in composite characteristic.
        Under the enumeration cap the witness is the canonical one, the first
        payload whose invariant closure is proper (``first_proper_ideal``);
        above it, the obstruction z.
        """
        ring = self.ring
        if not isinstance(ring, (ModularRing, MatrixRing, FunctionRing)):
            raise DomainError(f"G-simplicity by the fixed centre assumes a semisimple "
                              f"ring in prime characteristic or Z/n, not {ring!r}")
        self.ensure_valid()
        obstruction = self.fixed_center[1]
        if obstruction is None:
            return GSimplicity(True)
        if ring.size <= ring.caps.enumeration:
            ideal = first_proper_ideal(ring, self.ideal_engine, "G-simplicity witness")
        else:
            ideal = engine_ideal(ring, self.ideal_engine, [ring.from_vec(obstruction.tolist())])
        assert ideal is not None and not ideal.is_full, "a field obstruction generated A"
        return GSimplicity(False, ring.element(ideal.generators[0]), ideal)

    def __repr__(self) -> str:
        kinds = {a.kind for a in self.autos}
        return f"ActionMap({self.group!r} on {self.ring!r}, kinds={sorted(kinds)})"


# ring automorphism / action level queries ---------------------------------

def kernel(action: ActionMap) -> Subgroup:
    """Elements acting as the identity automorphism; a normal subgroup."""
    action.ensure_valid()
    members = frozenset(g for g in action.group.elements() if action.autos[g].is_identity())
    return Subgroup(action.group, members)


def fixed_ring(action: ActionMap) -> list[RingElement]:
    """The fixed ring A^G in canonical order: the members of the fixed space
    of all of A, cap-checked on |A^G|."""
    action.ensure_valid()
    ring = action.ring
    fixed = action.fixed_space(np.eye(ring.dim, dtype=np.int64))
    return [ring.element(a) for a in ring.members(fixed, "fixed ring")]


@dataclass(frozen=True)
class GSimplicity:
    """G-simplicity verdict; on failure, a generator of a proper invariant
    ideal, with that ideal."""

    value: bool
    witness: RingElement | None = None
    witness_ideal: TwoSidedIdeal | None = None


def invariant_ideal_closure(action: ActionMap, generators) -> TwoSidedIdeal:
    """Smallest ideal containing the generators and stable under the action."""
    action.ensure_valid()
    return engine_ideal(action.ring, action.ideal_engine, generators)


def is_G_simple(action: ActionMap) -> GSimplicity:
    """Whether the only action-stable ideals are zero and the whole ring.

    Decided once per action by the field test of the fixed centre, and kept
    as ``ActionMap.g_simplicity``.
    """
    return action.g_simplicity


def is_inner(auto: RingAutomorphism) -> RingElement | None:
    """The least unit v (canonical order) with auto(a) = v a v^-1, else None.

    auto is conjugation by v exactly when v^-1 is a unit of its twisted
    centralizer C (``RingAutomorphism.centralizer``), and then C = Z(A) v^-1.
    So C must be as large as the centre, and the units v are the inverses
    of the units of C, enumerated under the cap on |C| = |Z(A)|. The
    identity is answered at once: its least unit is 1, the least-rank unit
    of Z(A) in every supported ring.
    """
    ring = auto.ring
    if auto.is_identity():
        return ring.one_element
    twisted = auto.centralizer
    if twisted.size != ring.center_basis.size:
        return None
    inverses = [v for v in map(ring.try_invert_payload, ring.members(twisted, "inner automorphism"))
                if v is not None]
    return ring.element(min(inverses, key=ring.rank)) if inverses else None


def is_outer_action(action: ActionMap) -> bool:
    """True when no non-identity group element acts by an inner automorphism."""
    action.ensure_valid()
    return all(is_inner(action.autos[g]) is None for g in range(1, action.group.order))


def trivial_action(group: GroupTable, ring: RingSpec) -> ActionMap:
    return ActionMap(group, ring, [RingAutomorphism.identity(ring)] * group.order)


def action_from_descriptor(group: GroupTable, ring: RingSpec, desc: dict) -> ActionMap:
    """Instance-file action constructors."""
    kind = desc.get("kind")
    if kind == "trivial":
        return trivial_action(group, ring)
    if kind == "conjugation":
        units = desc["units"]
        if len(units) != group.order:
            raise DomainError(f"conjugation needs {group.order} units, got {len(units)}")
        autos = [RingAutomorphism.conjugation(ring, _payload(ring, u)) for u in units]
        return ActionMap(group, ring, autos)
    if kind == "permutation":
        perms = desc["perms"]
        if len(perms) != group.order:
            raise DomainError(f"permutation action needs {group.order} rows, got {len(perms)}")
        autos = [RingAutomorphism.coordinate_permutation(
            ring, [descriptor_int(x, "perms entry") for x in p]) for p in perms]
        return ActionMap(group, ring, autos)
    if kind == "unit_power":
        if not isinstance(ring, ModularRing):
            raise DomainError("unit_power actions require a residue ring")
        if group.tag.startswith("Z") and "x" not in group.tag:
            base = descriptor_int(desc["unit"], "unit")
            autos = [RingAutomorphism.unit_scaling(ring, pow(base, g, ring.n))
                     for g in group.elements()]
            return ActionMap(group, ring, autos)
        raise DomainError("unit_power actions are defined for cyclic groups only")
    if kind == "table":
        tables = desc["tables"]
        if len(tables) != group.order:
            raise DomainError(f"table action needs {group.order} tables, got {len(tables)}")
        autos = [RingAutomorphism.from_table(ring, [_payload(ring, x) for x in tbl])
                 for tbl in tables]
        return ActionMap(group, ring, autos)
    raise DomainError(f"unknown action kind {kind!r}")


def _payload(ring: RingSpec, raw):
    """Decode a JSON-level payload (int or nested list) for the given ring;
    numbers that are not integers are refused (``descriptor_int``)."""
    if isinstance(ring, ModularRing):
        return descriptor_int(raw, "payload") % ring.n
    if not isinstance(raw, (list, tuple)):
        raise DomainError(f"a payload of {ring!r} must be a list")
    if ring.descriptor[0] == "matrix":
        k = ring.k
        if len(raw) == k and all(isinstance(r, (list, tuple)) for r in raw):
            raw = [x for row in raw for x in row]
        flat = [descriptor_int(x, "payload entry") % ring.p for x in raw]
        if len(flat) != k * k:
            raise DomainError(f"matrix payload needs {k * k} entries, got {len(flat)}")
        return tuple(flat)
    if ring.descriptor[0] == "function":
        vals = [descriptor_int(x, "payload entry") for x in raw]
        if len(vals) != len(ring.points):
            raise DomainError(
                f"function payload needs {len(ring.points)} values, got {len(vals)}")
        if any(not 0 <= v < ring.q for v in vals):
            raise DomainError(f"function payload values must lie in 0..{ring.q - 1}")
        return tuple(vals)
    raise DomainError(f"cannot decode payload for {ring!r}")
