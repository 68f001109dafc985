"""Finite groups as total multiplication tables with index 0 = identity."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import lcm, prod
from typing import Sequence

import numpy as np

from .config import Caps
from .errors import CapacityError, DomainError

# entries of M[M[a, b], c] one step of the associativity check holds
_AXIOM_BLOCK = 1 << 20


def _perm_label(points: list[int], images: list[int]) -> str:
    """Cycle notation on 0-based points, 'e' for the identity, of the
    permutation sending points[i] to images[i] (points increasing) and
    fixing every other point."""
    image = dict(zip(points, images))
    seen: set[int] = set()
    cycles = []
    for start in points:
        if start in seen or image[start] == start:
            continue
        cycle = [start]
        seen.add(start)
        nxt = image[start]
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = image[nxt]
        cycles.append("(" + " ".join(str(x) for x in cycle) + ")")
    return "".join(cycles) if cycles else "e"


def _permutation_order(perm: tuple[int, ...], degree: int) -> int:
    """The order of a one-line permutation of 0..degree-1, the lcm of its
    cycle lengths, read off one walk along its cycles; anything that is not
    a permutation of those points is refused."""
    # the messages name no more than a point: perm itself may be huge
    if len(perm) != degree:
        raise DomainError(f"a generator of degree {degree} has {len(perm)} entries")
    bad = next((x for x in perm if not 0 <= x < degree), None)
    if bad is not None:
        raise DomainError(f"generator entry {bad} is not a point of 0..{degree - 1}")
    seen = bytearray(degree)
    lengths = set()
    for start in range(degree):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = 1
            x = perm[x]
            length += 1
        if x != start:   # the walk ran into another cycle: perm is not injective
            raise DomainError(f"a generator sends two points to {x}, so it is not "
                              f"a permutation of 0..{degree - 1}")
        lengths.add(length)
    return lcm(*lengths)


def _check_orbits(moved: list[int], gens: list[np.ndarray], cap: int) -> None:
    """Refuse generators with an orbit of more than cap points: by
    orbit-stabilizer the group's order is at least the size of each orbit.
    The orbits of the moved points are walked, each until it holds cap + 1
    points."""
    images = [g.tolist() for g in gens]
    seen = set()
    for start in moved:
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for x in orbit:   # grows while it is walked
            for image in images:
                y = image[x]
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
                    if len(orbit) > cap:
                        raise CapacityError("group_order", cap, cap + 1, "permutation group orbit")


def _close_permutations(degree: int, gens: list[np.ndarray], cap: int) -> list[np.ndarray]:
    """Every product of the generators, as one-line rows in lexicographic
    order (the identity first); refused once more than cap elements are
    found.

    Elements are keyed by their bytes as big-endian words, whose order is the
    lexicographic order of the points; each row is a view of its key."""
    word = np.dtype(">u4") if degree <= 1 << 32 else np.dtype(">u8")
    identity = np.arange(degree, dtype=word)
    elems = {identity.tobytes()}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = a[g]   # c[i] = a[g[i]]
                key = c.tobytes()
                if key not in elems:
                    if len(elems) >= cap:
                        raise CapacityError("group_order", cap, len(elems) + 1,
                                            "permutation closure")
                    elems.add(key)
                    nxt.append(c)
        frontier = nxt
    return [np.frombuffer(key, dtype=word) for key in sorted(elems)]


def _separating_points(perms: np.ndarray) -> np.ndarray:
    """Points on which the distinct permutations (rows) differ pairwise,
    increasing: one point per split of a class of rows that agree so far, so
    at most len(perms) - 1, each moved by some row."""
    points = []
    classes = [list(range(len(perms)))]
    while classes:
        members = classes.pop()
        if len(members) < 2:
            continue
        x = int((perms[members[0]] != perms[members[1]]).nonzero()[0][0])
        points.append(x)
        split: dict[int, list[int]] = {}
        for i, value in zip(members, perms[members, x].tolist()):
            split.setdefault(value, []).append(i)
        classes.extend(split.values())
    return np.unique(np.array(points, dtype=np.intp))


class GroupTable:
    """A finite group with elements 0..order-1, identity at index 0.

    Construction verifies the group laws exhaustively (orders stay within the
    group-order cap, 64 by default).
    """

    def __init__(self, mul: Sequence[Sequence[int]], names: Sequence[str] | None = None,
                 tag: str = "table", caps: Caps | None = None) -> None:
        self.caps = caps or Caps.from_env()
        self.order = len(mul)
        if self.order == 0:
            raise DomainError("group table must be non-empty")
        if self.order > self.caps.group_order:
            raise CapacityError("group_order", self.caps.group_order, self.order, "group table")
        self.mul_table = tuple(tuple(int(x) for x in row) for row in mul)
        self.tag = tag
        self.names = tuple(names) if names is not None else tuple(str(i) for i in range(self.order))
        if len(self.names) != self.order:
            raise DomainError("names length does not match group order")
        self._verify_axioms()
        self.inv_table = self._build_inverses()

    def _verify_axioms(self) -> None:
        """Check the group laws, reporting the first failure in loop order.
        Associativity is one whole-array test, M[M[a, b], c] against
        M[a, M[b, c]], over blocks of a so that no more than _AXIOM_BLOCK
        entries are held at once; the identity and inverse tests compare
        whole rows."""
        n = self.order
        rows = self.mul_table
        for i, row in enumerate(rows):
            if len(row) != n:
                raise DomainError(f"mul table row {i} has length {len(row)}, expected {n}")
            for x in row:
                if not 0 <= x < n:
                    raise DomainError(f"mul table entry {x} out of range 0..{n - 1}")
        elems = tuple(range(n))
        if rows[0] != elems or tuple(row[0] for row in rows) != elems:
            raise DomainError("index 0 is not a two-sided identity")
        table = np.array(rows, dtype=np.intp)
        step = max(1, _AXIOM_BLOCK // (n * n))
        for lo in range(0, n, step):
            block = np.arange(lo, min(lo + step, n))[:, None, None]
            wrong = table[table[lo:lo + step]] != table[block, table[None]]
            if wrong.any():
                a, b, c = (int(i) for i in np.argwhere(wrong)[0])
                raise DomainError(f"multiplication not associative at ({lo + a},{b},{c})")
        for g, row in enumerate(rows):
            if 0 not in row:
                raise DomainError(f"element {g} has no inverse")

    def _build_inverses(self) -> tuple[int, ...]:
        """Per g, the h with g h = e: a monoid in which every element has a
        right inverse is a group, so each row is a permutation and this h
        is the only one, with h g = e as well."""
        return tuple(row.index(0) for row in self.mul_table)

    # constructors --------------------------------------------------------
    @classmethod
    def cyclic_product(cls, orders: Sequence[int], caps: Caps | None = None) -> "GroupTable":
        """Direct product of cyclic groups Z/n1 x ... x Z/nk."""
        orders = [int(n) for n in orders]
        if not orders or any(n < 1 for n in orders):
            raise DomainError(f"cyclic factors must be positive, got {orders}")
        caps = caps or Caps.from_env()
        order = prod(orders)
        if order > caps.group_order:
            raise CapacityError("group_order", caps.group_order, order, "group table")
        elems = list(product(*[range(n) for n in orders]))
        index = {e: i for i, e in enumerate(elems)}
        mul = [[index[tuple((x + y) % n for x, y, n in zip(a, b, orders))] for b in elems]
               for a in elems]
        if len(orders) == 1:
            names = [str(e[0]) for e in elems]
            tag = f"Z{orders[0]}"
        else:
            names = ["(" + ",".join(str(x) for x in e) + ")" for e in elems]
            tag = "x".join(f"Z{n}" for n in orders)
        table = cls(mul, names, tag, caps)
        table.factors = tuple(orders)
        table.tuples = elems
        return table

    @classmethod
    def from_permutations(cls, degree: int, generators: Sequence[Sequence[int]],
                          caps: Caps | None = None) -> "GroupTable":
        """Permutation group generated by one-line permutations of 0..degree-1.

        A generator's order and an orbit's size bound the group's from below,
        so a generator of order above the group-order cap, or an orbit of
        more points, is refused before any element is built."""
        caps = caps or Caps.from_env()
        gens = []
        for g in generators:
            perm = tuple(int(x) for x in g)
            order = _permutation_order(perm, degree)
            if order > caps.group_order:
                raise CapacityError("group_order", caps.group_order, order,
                                    "permutation generator order")
            gens.append(np.array(perm, dtype=np.intp))
        # every element fixes the points no generator moves
        identity = np.arange(degree)
        support = np.zeros(degree, dtype=bool)
        for g in gens:
            support |= g != identity
        moved = support.nonzero()[0]
        moved_points = moved.tolist()
        _check_orbits(moved_points, gens, caps.group_order)
        elems = _close_permutations(degree, gens, caps.group_order)
        # every element permutes the moved points, so the table and the names
        # are read off those columns alone
        on_moved = np.stack([row[moved] for row in elems]).astype(np.intp)
        # a product is known by its values on points S separating the
        # elements: (a b)[S] = a[b[S]], for all pairs in one indexing
        on_points = on_moved[:, _separating_points(on_moved)]
        index = {tuple(row): i for i, row in enumerate(on_points.tolist())}
        products = on_moved[:, np.searchsorted(moved, on_points)]
        mul = [[index[tuple(ab)] for ab in row] for row in products.tolist()]
        names = [_perm_label(moved_points, images) for images in on_moved.tolist()]
        table = cls(mul, names, f"Perm{degree}", caps)
        # tuples of points sharing one int object per point; each row is
        # released once its tuple is built, so one copy of the group is held
        shared = list(range(degree))
        permutations = []
        for i in range(len(elems)):
            row, elems[i] = elems[i], None
            permutations.append(tuple(map(shared.__getitem__, row.tolist())))
        table.permutations = permutations
        return table

    @classmethod
    def symmetric(cls, degree: int, caps: Caps | None = None) -> "GroupTable":
        """S_degree; refused before any permutation is built when degree!
        exceeds the group-order cap."""
        caps = caps or Caps.from_env()
        order = 1
        for k in range(2, degree + 1):
            order *= k
            if order > caps.group_order:
                what = f"S{degree}" if k == degree else f"S{degree}, of order at least {k}!"
                raise CapacityError("group_order", caps.group_order, order, what)
        if degree == 1:
            return cls.from_permutations(1, [[0]], caps)
        gens = [[1, 0] + list(range(2, degree)), list(range(1, degree)) + [0]]
        return cls.from_permutations(degree, gens, caps)

    # queries --------------------------------------------------------------
    def mul(self, g: int, h: int) -> int:
        self._check_index(g)
        self._check_index(h)
        return self.mul_table[g][h]

    def inv(self, g: int) -> int:
        self._check_index(g)
        return self.inv_table[g]

    def _check_index(self, g: int) -> None:
        if not 0 <= g < self.order:
            raise DomainError(f"group index {g} out of range 0..{self.order - 1}")

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def is_abelian(self) -> bool:
        return all(self.mul_table[a][b] == self.mul_table[b][a]
                   for a in range(self.order) for b in range(self.order))

    def conjugacy_class(self, g: int) -> frozenset[int]:
        self._check_index(g)
        return frozenset(self.mul_table[self.mul_table[h][g]][self.inv_table[h]]
                         for h in range(self.order))

    @cached_property
    def conjugacy_classes(self) -> tuple[frozenset[int], ...]:
        """Classes ordered by their smallest member."""
        seen: set[int] = set()
        classes = []
        for g in range(self.order):
            if g in seen:
                continue
            cls_ = self.conjugacy_class(g)
            seen.update(cls_)
            classes.append(cls_)
        return tuple(classes)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set, chosen greedily in index order."""
        gens: list[int] = []
        span = {0}
        for g in range(self.order):
            if g in span:
                continue
            gens.append(g)
            frontier = list(span)
            while frontier:
                x = frontier.pop()
                for s in gens:
                    y = self.mul_table[x][s]
                    if y not in span:
                        span.add(y)
                        frontier.append(y)
        return tuple(gens)

    def class_sizes(self) -> list[int]:
        return [len(c) for c in self.conjugacy_classes]

    def cyclic_subgroup(self, g: int) -> "Subgroup":
        members = {0}
        x = g
        while x not in members:
            members.add(x)
            x = self.mul_table[x][g]
        return Subgroup(self, frozenset(members))

    def name(self, g: int) -> str:
        return self.names[g]

    def __repr__(self) -> str:
        return f"GroupTable({self.tag}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    parent: GroupTable
    members: frozenset[int]

    def __post_init__(self) -> None:
        if 0 not in self.members:
            raise DomainError("subgroup must contain the identity")
        for a in self.members:
            if self.parent.inv_table[a] not in self.members:
                raise DomainError(f"subgroup not closed under inverse at {a}")
            for b in self.members:
                if self.parent.mul_table[a][b] not in self.members:
                    raise DomainError(f"subgroup not closed under product at ({a},{b})")

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def is_trivial(self) -> bool:
        return self.members == {0}

    def is_normal(self) -> bool:
        G = self.parent
        return all(G.mul_table[G.mul_table[h][a]][G.inv_table[h]] in self.members
                   for a in self.members for h in range(G.order))

    def __contains__(self, g: int) -> bool:
        return g in self.members


def validate_action_table(group: GroupTable, act: Sequence[Sequence[int]], npoints: int) -> None:
    """Check that act[g] rows are bijections compatible with the group law."""
    if len(act) != group.order:
        raise DomainError(f"action table has {len(act)} rows, expected {group.order}")
    for g, row in enumerate(act):
        if len(row) != npoints or sorted(row) != list(range(npoints)):
            raise DomainError(f"action row for {group.name(g)} is not a bijection of the points")
    for x in range(npoints):
        if act[0][x] != x:
            raise DomainError("identity does not act trivially")
    for g in range(group.order):
        for h in range(group.order):
            gh = group.mul_table[g][h]
            for x in range(npoints):
                if act[gh][x] != act[g][act[h][x]]:
                    raise DomainError(
                        f"action is not a homomorphism at ({group.name(g)},{group.name(h)},{x})")


def stabilizer(group: GroupTable, act: Sequence[Sequence[int]], x: int) -> Subgroup:
    """Stabilizer subgroup of a point under a validated action table."""
    npoints = len(act[0])
    validate_action_table(group, act, npoints)
    if not 0 <= x < npoints:
        raise DomainError(f"point {x} out of range 0..{npoints - 1}")
    return Subgroup(group, frozenset(g for g in group.elements() if act[g][x] == x))
