"""Finite transformation groups and their function-ring skew algebras.

A finite discrete point set is compact Hausdorff, so the dynamical
characterizations of simplicity apply verbatim with coefficients in a finite
field: minimality degenerates to transitivity and every ideal of the function
ring is the vanishing ideal of a point subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .actions import ActionMap, RingAutomorphism
from .closure import HowellBasis
from .config import Caps
from .criteria import CheckReport, CriterionVerdict
from .errors import DomainError
from .groups import GroupTable, Subgroup, validate_action_table
from .rings import FunctionRing, TwoSidedIdeal
from .skew import SkewContext, check_dimension


@dataclass
class TransformationGroup:
    """A finite group acting on a finite point set, with a coefficient field."""

    npoints: int
    group: GroupTable
    act: tuple[tuple[int, ...], ...]
    q: int = 2
    name: str = ""
    caps: Caps | None = None

    def __post_init__(self) -> None:
        self.act = tuple(tuple(int(x) for x in row) for row in self.act)
        validate_action_table(self.group, self.act, self.npoints)

    # basic classification -------------------------------------------------
    def moved(self, g: int) -> list[int]:
        return [x for x in range(self.npoints) if self.act[g][x] != x]

    def is_faithful(self) -> bool:
        return all(self.moved(g) for g in range(1, self.group.order))

    def orbits(self) -> list[frozenset[int]]:
        seen: set[int] = set()
        out = []
        for x in range(self.npoints):
            if x in seen:
                continue
            orbit = frozenset(self.act[g][x] for g in self.group.elements())
            seen.update(orbit)
            out.append(orbit)
        return out

    def is_minimal(self) -> bool:
        """No nonempty proper invariant subset; transitivity, for finite sets."""
        return len(self.orbits()) == 1

    def is_free(self) -> bool:
        return all(len(self.moved(g)) == self.npoints for g in range(1, self.group.order))

    def stabilizer(self, x: int) -> Subgroup:
        if not 0 <= x < self.npoints:
            raise DomainError(f"point {x} out of range 0..{self.npoints - 1}")
        return Subgroup(self.group,
                        frozenset(g for g in self.group.elements() if self.act[g][x] == x))

    def stabilizer_orbit_sizes(self) -> list[list[int]]:
        """|Stab(x).y| for all x, y; finite shadows, reported not asserted."""
        out = []
        for x in range(self.npoints):
            stab = self.stabilizer(x)
            out.append([len({self.act[h][y] for h in stab.members})
                        for y in range(self.npoints)])
        return out

    # induced machinery -----------------------------------------------------
    @cached_property
    def ring(self) -> FunctionRing:
        return FunctionRing(self.npoints, self.q, self.caps)

    @cached_property
    def action(self) -> ActionMap:
        return induce_sigma(self)

    @cached_property
    def context(self) -> SkewContext:
        return SkewContext(self.ring, self.group, self.action, self.caps)

    @property
    def evaluation(self) -> SkewContext:
        """The context, which caches every fact (``bench/workloads.py`` reads this)."""
        return self.context

    def __repr__(self) -> str:
        label = self.name or f"{self.group.tag} on {self.npoints} pts"
        return f"TransformationGroup({label}, q={self.q})"


def induce_sigma(T: TransformationGroup) -> ActionMap:
    """The induced automorphism action: g sends f to f composed with g^-1."""
    group = T.group
    check_dimension(T.ring.dim, group)
    autos = [RingAutomorphism.coordinate_permutation(T.ring, T.act[group.inv_table[g]])
             for g in group.elements()]
    action = ActionMap(group, T.ring, autos)
    action.ensure_valid()
    return action


# subset <-> ideal correspondence --------------------------------------------

def vanishing_ideal(ring: FunctionRing, subset: Sequence[int]) -> TwoSidedIdeal:
    """Functions vanishing on the subset, as a two-sided ideal: spanned by the
    coordinates of the points outside it, and listed with its least member,
    zero, as generator."""
    subset = frozenset(subset)
    m = ring.gf.degree
    basis = HowellBasis(ring.char, ring.dim)
    for i, row in enumerate(np.eye(ring.dim, dtype=np.int64)):
        if i // m not in subset:
            basis.insert(row)
    return TwoSidedIdeal(ring, (ring.zero,), basis)


def zero_set(ring: FunctionRing, ideal: TwoSidedIdeal) -> frozenset[int]:
    """Points where every member of the ideal vanishes: where every row of
    its basis does."""
    rows = np.array(ideal.basis.rows, dtype=np.int64)
    vanishing = ~rows.reshape(-1, len(ring.points), ring.gf.degree).any(axis=(0, 2))
    return frozenset(np.flatnonzero(vanishing).tolist())


# checks -----------------------------------------------------------------------

def faithful_minimal_check(T: TransformationGroup) -> CheckReport:
    """Dynamical side against the ring side: faithful iff the induced action
    is injective, minimal iff the function ring is action-simple."""
    report = CheckReport("faithful_minimal")
    ctx = T.context
    faithful = T.is_faithful()
    minimal = T.is_minimal()
    injective = ctx.sigma_injective
    g_simple = bool(ctx.g_simplicity.value)
    report.verdicts["faithful"] = CriterionVerdict("faithful", faithful)
    report.verdicts["minimal"] = CriterionVerdict("minimal", minimal)
    report.verdicts["sigma_injective"] = CriterionVerdict("sigma_injective", injective)
    report.verdicts["g_simple"] = CriterionVerdict("g_simple", g_simple)
    report.conclusions["faithful_iff_injective"] = faithful == injective
    report.conclusions["minimal_iff_g_simple"] = minimal == g_simple
    if T.npoints == 1:
        report.notes.append("single-point space: faithfulness degenerates to |G| = 1")
    report.notes.append("closed-ideal and plain action-simplicity coincide on "
                        "finite discrete point sets")
    return report


def dynamics_simplicity_check(T: TransformationGroup) -> CheckReport:
    """The five-way equivalence suite for the induced skew algebra.

    Simplicity (i) is decided by the oracle: within the cap by the sweep or
    the certificate, above it by witness search or the certificate, and it
    stays undetermined only when none of these decides. All other assertions
    are always decided. Asserted:
    (i) iff (ii); (i) implies (iii)-(v); (iv) iff (v); and for abelian groups
    all decided assertions agree.
    """
    report = CheckReport("dynamics_simplicity")
    ctx = T.context
    a_simple = report.oracle_verdict(
        ctx, ("simple_iff_max_commutative", "simple_implies_rest"),
        note="simplicity undetermined at this size; "
             "equivalences asserted on the decided assertions only")
    g_simple = bool(ctx.g_simplicity.value)
    max_comm = bool(ctx.max_commutative)
    center_field = ctx.center_is_field
    injective = ctx.sigma_injective
    minimal = T.is_minimal()
    faithful = T.is_faithful()
    a_maxcomm = g_simple and max_comm
    a_center = g_simple and center_field
    a_inj = g_simple and injective
    a_dyn = minimal and faithful
    report.verdicts["g_simple_and_max_commutative"] = CriterionVerdict(
        "g_simple_and_max_commutative", a_maxcomm)
    report.verdicts["g_simple_and_center_field"] = CriterionVerdict(
        "g_simple_and_center_field", a_center)
    report.verdicts["g_simple_and_injective"] = CriterionVerdict(
        "g_simple_and_injective", a_inj)
    report.verdicts["minimal_and_faithful"] = CriterionVerdict(
        "minimal_and_faithful", a_dyn)
    if a_simple is not None:
        report.conclusions["simple_iff_max_commutative"] = a_simple == a_maxcomm
        report.conclusions["simple_implies_rest"] = (
            True if not a_simple else (a_center and a_inj and a_dyn))
    report.conclusions["injective_iff_minimal_faithful"] = a_inj == a_dyn
    if (a_simple is False) and a_center and a_inj and a_dyn:
        report.notes.append("conditions (centre field, injectivity, minimal+faithful) "
                            "hold without simplicity: general converse fails here")
    if T.group.is_abelian:
        decided = [a_maxcomm, a_center, a_inj, a_dyn]
        if a_simple is not None:
            decided.append(a_simple)
        report.conclusions["abelian_all_equivalent"] = len(set(decided)) == 1
    else:
        report.conclusions["abelian_all_equivalent"] = None
    report.verdicts["stabilizer_orbit_max"] = CriterionVerdict(
        "stabilizer_orbit_max", True, method="oracle",
        witness=max(max(row) for row in T.stabilizer_orbit_sizes()),
        note="finite stabilizer-orbit sizes, reported only")
    return report


def abelian_freeness_check(T: TransformationGroup) -> CheckReport:
    """For abelian groups: minimal plus faithful forces a free action."""
    if not T.group.is_abelian:
        raise DomainError("freeness check applies to abelian groups only")
    report = CheckReport("abelian_freeness")
    minimal, faithful, free = T.is_minimal(), T.is_faithful(), T.is_free()
    report.verdicts["minimal"] = CriterionVerdict("minimal", minimal)
    report.verdicts["faithful"] = CriterionVerdict("faithful", faithful)
    report.verdicts["free"] = CriterionVerdict("free", free)
    report.conclusions["minimal_faithful_implies_free"] = (
        free if (minimal and faithful) else True)
    return report


# the fixed catalogue ------------------------------------------------------------

def regular_action(group: GroupTable) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(group.mul_table[g][x] for x in range(group.order))
                 for g in group.elements())


def rotation_action(n: int, npts: int) -> tuple[tuple[int, ...], ...]:
    """Z/n acting on npts points by rotation steps of n mod npts orbits."""
    return tuple(tuple((x + g) % npts for x in range(npts)) for g in range(n))


def catalogue(caps: Caps | None = None) -> list[TransformationGroup]:
    """The fixed action catalogue (|X| <= 6, |G| <= 24, q in {2, 3}).

    Simplicity is decided on all 20 actions: within the enumeration cap by
    the sweep or the certificate, above it by a structured witness-search
    candidate or the certificate.
    """
    caps = caps or Caps.from_env()
    out: list[TransformationGroup] = []

    def add(name, npoints, group, act, q=2):
        out.append(TransformationGroup(npoints, group, act, q, name, caps))

    for n in (2, 3, 4, 5, 6):
        g = GroupTable.cyclic_product([n])
        add(f"regular_Z{n}", n, g, regular_action(g))
    v4 = GroupTable.cyclic_product([2, 2])
    add("regular_Z2xZ2", 4, v4, regular_action(v4))
    s3 = GroupTable.symmetric(3)
    add("regular_S3", 6, s3, regular_action(s3))
    add("natural_S3", 3, s3, tuple(s3.permutations))
    add("natural_S3_q3", 3, s3, tuple(s3.permutations), q=3)
    s4 = GroupTable.symmetric(4)
    add("natural_S4", 4, s4, tuple(s4.permutations))
    z2 = GroupTable.cyclic_product([2])
    add("swap_2pts", 2, z2, ((0, 1), (1, 0)))
    add("two_2cycles", 4, z2, ((0, 1, 2, 3), (1, 0, 3, 2)))
    add("swap_plus_fixed", 4, z2, ((0, 1, 2, 3), (1, 0, 2, 3)))
    add("trivial_Z2", 2, z2, ((0, 1), (0, 1)))
    z3 = GroupTable.cyclic_product([3])
    add("rotation_Z3", 3, z3, rotation_action(3, 3))
    add("rotation_Z3_q3", 3, z3, rotation_action(3, 3), q=3)
    z4 = GroupTable.cyclic_product([4])
    add("through_quotient_Z4", 2, z4,
        tuple(tuple((x + g) % 2 for x in range(2)) for g in range(4)))
    z6 = GroupTable.cyclic_product([6])
    add("through_quotient_Z6_on3", 3, z6,
        tuple(tuple((x + g) % 3 for x in range(3)) for g in range(6)))
    add("Z6_mixed_orbits_5pts", 5, z6,
        tuple(tuple(((x + g) % 3 if x < 3 else 3 + ((x - 3 + g) % 2))
                    for x in range(5)) for g in range(6)))
    add("single_point_Z2", 1, z2, ((0,), (0,)))
    return out
