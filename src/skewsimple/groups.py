"""Finite groups as total multiplication tables with index 0 = identity."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import prod
from typing import Sequence

from .config import Caps
from .errors import CapacityError, DomainError


def _perm_label(perm: tuple[int, ...]) -> str:
    """Cycle notation on 0-based points, 'e' for the identity."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        cycles.append("(" + " ".join(str(x) for x in cycle) + ")")
    return "".join(cycles) if cycles else "e"


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
        n = self.order
        for i, row in enumerate(self.mul_table):
            if len(row) != n:
                raise DomainError(f"mul table row {i} has length {len(row)}, expected {n}")
            for x in row:
                if not 0 <= x < n:
                    raise DomainError(f"mul table entry {x} out of range 0..{n - 1}")
        for g in range(n):
            if self.mul_table[0][g] != g or self.mul_table[g][0] != g:
                raise DomainError("index 0 is not a two-sided identity")
        for a in range(n):
            for b in range(n):
                ab = self.mul_table[a][b]
                for c in range(n):
                    if self.mul_table[ab][c] != self.mul_table[a][self.mul_table[b][c]]:
                        raise DomainError(f"multiplication not associative at ({a},{b},{c})")
        for g in range(n):
            if not any(self.mul_table[g][h] == 0 for h in range(n)):
                raise DomainError(f"element {g} has no inverse")

    def _build_inverses(self) -> tuple[int, ...]:
        inv = [0] * self.order
        for g in range(self.order):
            for h in range(self.order):
                if self.mul_table[g][h] == 0 and self.mul_table[h][g] == 0:
                    inv[g] = h
                    break
        return tuple(inv)

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
        """Permutation group generated by one-line permutations of 0..degree-1."""
        caps = caps or Caps.from_env()
        gens = []
        for g in generators:
            perm = tuple(int(x) for x in g)
            if sorted(perm) != list(range(degree)):
                raise DomainError(f"{perm} is not a permutation of 0..{degree - 1}")
            gens.append(perm)
        identity = tuple(range(degree))
        elems = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    c = tuple(a[g[i]] for i in range(degree))
                    if c not in elems:
                        if len(elems) >= caps.group_order:
                            raise CapacityError("group_order", caps.group_order,
                                                len(elems) + 1, "permutation closure")
                        elems.add(c)
                        nxt.append(c)
            frontier = nxt
        ordered = sorted(elems)  # identity is lexicographically least
        index = {p: i for i, p in enumerate(ordered)}
        mul = [[index[tuple(a[b[i]] for i in range(degree))] for b in ordered] for a in ordered]
        names = [_perm_label(p) for p in ordered]
        table = cls(mul, names, f"Perm{degree}", caps)
        table.permutations = ordered
        return table

    @classmethod
    def symmetric(cls, degree: int, caps: Caps | None = None) -> "GroupTable":
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
