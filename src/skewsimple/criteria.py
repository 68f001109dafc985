"""Executable simplicity criteria, each cross-checked against the oracle.

Every check returns a CheckReport whose ``conclusions`` map records each
asserted implication as True (holds), False (violated: the criterion and the
oracle disagree) or None (not applicable, or undecidable because simplicity is
undetermined at this size). Violations are hard failures for the suite runner.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from .actions import ActionMap, RingAutomorphism, trivial_action
from .actions import is_G_simple  # noqa: F401  (``bench/tracer.py`` wraps it under this name)
from . import closure
from .errors import DomainError, PreconditionError
from .groups import GroupTable
from .rings import FunctionRing, MatrixRing, ModularRing, RingSpec
from .skew import SkewContext, SkewElement, augmentation, commuting_witness_outside_A
from .skew import skew_center  # noqa: F401  (``bench/tracer.py`` wraps it under this name)

@dataclass
class CriterionVerdict:
    """One evaluated assertion with an optional revalidatable witness."""

    assertion: str
    value: bool | None
    method: str = "criterion"
    witness: object = None
    note: str = ""

    def as_json(self) -> dict:
        out = {"assertion": self.assertion, "value": self.value, "method": self.method}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class CheckReport:
    name: str
    verdicts: dict[str, CriterionVerdict] = field(default_factory=dict)
    conclusions: dict[str, bool | None] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def violations(self) -> list[str]:
        return [key for key, value in self.conclusions.items() if value is False]

    def oracle_verdict(self, ctx: SkewContext, undetermined: tuple[str, ...],
                       witness: bool = False,
                       note: str = "simplicity undetermined at this size") -> bool | None:
        """Record the oracle's "simple" verdict, with its note (and its
        witness when asked), and return its value; an undetermined verdict
        also sets the named conclusions to None and adds the note."""
        simplicity = ctx.simplicity
        self.verdicts["simple"] = CriterionVerdict(
            "simple", simplicity.value, method="oracle", note=simplicity.note,
            witness=_element_json(simplicity.witness) if witness and simplicity.witness else None)
        if simplicity.value is None:
            self.conclusions.update(dict.fromkeys(undetermined))
            self.notes.append(note)
        return simplicity.value

    def as_json(self) -> dict:
        return {
            "name": self.name,
            "verdicts": {k: v.as_json() for k, v in self.verdicts.items()},
            "conclusions": dict(self.conclusions),
            "violations": self.violations,
            "notes": list(self.notes),
        }


def field_obstruction(ctx: SkewContext) -> SkewElement | None:
    """A nonzero element of the centre Z that is not a unit of Z, or None
    when Z is a field: ``closure.field_obstruction`` on Z's Howell basis and
    R's batched product (``SkewContext.products``), so decided at any |A|."""
    one = np.array(ctx.vec_of(ctx.one), dtype=np.int64)
    z = closure.field_obstruction(ctx.char, ctx.center_basis.matrix(), one, ctx.products)
    return None if z is None else ctx.element_of_vec(z)


def InstanceEvaluation(ctx: SkewContext) -> SkewContext:  # noqa: N802
    """The context, which caches every fact (``bench/workloads.py`` calls this)."""
    return ctx


def _element_json(r: SkewElement) -> dict:
    return {"element": r.serialize()}


def necessary_conditions(ctx: SkewContext) -> CheckReport:
    """The three conditions forced by simplicity: centre a field, coefficient
    ring G-simple, action injective. Simplicity of R is computed by the
    oracle and the implication is asserted."""
    report = CheckReport("necessary_conditions")
    obstruction = ctx.center_obstruction
    report.verdicts["center_is_field"] = CriterionVerdict(
        "center_is_field", obstruction is None,
        witness=None if obstruction is None else _element_json(obstruction))
    gs = ctx.g_simplicity
    report.verdicts["g_simple"] = CriterionVerdict(
        "g_simple", gs.value,
        witness=None if gs.value else {
            "coefficient": ctx.ring.payload_json(gs.witness.payload)})
    report.verdicts["sigma_injective"] = CriterionVerdict(
        "sigma_injective", ctx.sigma_injective,
        witness=None if ctx.sigma_injective else {"group_element": ctx.group.name(
            min(g for g in ctx.kernel.members if g != 0))})
    simple = report.oracle_verdict(ctx, ("simple_implies_necessary",))
    if simple:
        report.conclusions["simple_implies_necessary"] = (
            obstruction is None and bool(gs.value) and ctx.sigma_injective)
    elif simple is False:
        report.conclusions["simple_implies_necessary"] = True
        report.notes.append("vacuous: the ring is not simple")
    return report


def abelian_simplicity_check(ctx: SkewContext) -> CheckReport:
    """Simplicity against the centre-field and injectivity conditions.

    Asserted: simple implies both conditions; for abelian groups, simple iff
    (G-simple and centre a field); with a commutative coefficient ring as
    well, simple iff (G-simple and injective).
    """
    report = CheckReport("abelian_simplicity")
    simple = report.oracle_verdict(ctx, ("simple_implies_conditions",), witness=True)
    cond_field = bool(ctx.g_simplicity.value) and ctx.center_is_field
    cond_inj = bool(ctx.g_simplicity.value) and ctx.sigma_injective
    report.verdicts["g_simple_and_center_field"] = CriterionVerdict(
        "g_simple_and_center_field", cond_field)
    report.verdicts["g_simple_and_injective"] = CriterionVerdict(
        "g_simple_and_injective", cond_inj)
    if simple is not None:
        report.conclusions["simple_implies_conditions"] = (
            True if not simple else (cond_field and cond_inj))
    if ctx.group.is_abelian and simple is not None:
        report.conclusions["abelian_equivalence"] = simple == cond_field
        if ctx.ring.is_commutative:
            report.conclusions["abelian_commutative_equivalence"] = (
                simple == cond_field == cond_inj)
        else:
            report.conclusions["abelian_commutative_equivalence"] = None
    else:
        report.conclusions["abelian_equivalence"] = None
        report.conclusions["abelian_commutative_equivalence"] = None
    if simple is False and cond_inj:
        report.notes.append(
            "injectivity plus G-simplicity without simplicity: the general "
            "converse fails here (non-abelian group)")
    if simple is False and cond_field:
        report.notes.append(
            "centre-field condition without simplicity exhibited")
    return report


def commutative_simplicity_check(ctx: SkewContext) -> CheckReport:
    """For commutative coefficients: simple iff G-simple and A maximal
    commutative in R. Both sides computed independently."""
    if not ctx.ring.is_commutative:
        raise DomainError("commutative simplicity check requires a commutative coefficient ring")
    report = CheckReport("commutative_simplicity")
    simple = report.oracle_verdict(ctx, ("commutative_equivalence",))
    maxc = ctx.max_commutative
    witness = None if maxc else commuting_witness_outside_A(ctx)
    report.verdicts["g_simple"] = CriterionVerdict("g_simple", ctx.g_simplicity.value)
    report.verdicts["max_commutative"] = CriterionVerdict(
        "max_commutative", maxc,
        witness=None if witness is None else _element_json(witness))
    if simple is not None:
        report.conclusions["commutative_equivalence"] = (
            simple == (bool(ctx.g_simplicity.value) and bool(maxc)))
    return report


def outer_simplicity_check(ctx: SkewContext) -> CheckReport:
    """For abelian outer actions: simple iff G-simple."""
    if not ctx.group.is_abelian:
        raise PreconditionError("G abelian", f"{ctx.group!r} is not abelian")
    if not ctx.outer:
        raise PreconditionError("action outer",
                                "some non-identity element acts by an inner automorphism")
    report = CheckReport("outer_simplicity")
    simple = report.oracle_verdict(ctx, ("outer_equivalence",))
    report.verdicts["g_simple"] = CriterionVerdict("g_simple", ctx.g_simplicity.value)
    if simple is not None:
        report.conclusions["outer_equivalence"] = simple == bool(ctx.g_simplicity.value)
    return report


def center_containment_check(ctx: SkewContext) -> CheckReport:
    """Structure of the centre against the fixed subring.

    Asserted: Z(R) lies inside the identity component iff it equals
    (A^G intersect Z(A)) u_e; and when A is G-simple and the containment
    holds, the centre is a field. The orderable-group converse has no finite
    instance and is reported as out of scope.
    """
    report = CheckReport("center_containment")
    centre, d = ctx.center_basis, ctx.ring.dim
    # each basis row of the centre lies in one conjugacy class, so the rows
    # with a pivot in slot e span the part on the class {e}
    contained = all(piv < d for piv in centre.pivots)
    identity_part = tuple(tuple(int(x) for x in row[:d])
                          for row, piv in zip(centre.rows, centre.pivots) if piv < d)
    fixed_central = ctx.action.fixed_center[0]
    equals_fixed_central = contained and identity_part == fixed_central.key()
    report.verdicts["center_in_identity_component"] = CriterionVerdict(
        "center_in_identity_component", contained,
        witness=None if contained else _element_json(_least_central_outside_e(ctx)))
    report.verdicts["center_equals_fixed_central"] = CriterionVerdict(
        "center_equals_fixed_central", equals_fixed_central)
    report.verdicts["center_is_field"] = CriterionVerdict("center_is_field", ctx.center_is_field)
    report.conclusions["containment_equivalence"] = contained == equals_fixed_central
    if bool(ctx.g_simplicity.value) and contained:
        report.conclusions["containment_gives_field"] = ctx.center_is_field
    else:
        report.conclusions["containment_gives_field"] = None
    report.notes.append("orderable-group converse: out of finite scope "
                        "(the only finite orderable group is trivial)")
    return report


def _least_central_outside_e(ctx: SkewContext) -> SkewElement:
    """The least-rank central element outside the identity component, for a
    centre not inside it: the least nonzero member of the centre, since slot
    e is the most significant in rank order (``HowellBasis.least_member``)."""
    return ctx.element_of_vec(ctx.center_basis.least_member(ctx.rank_columns))


def centralizer_kernel_check(ctx: SkewContext) -> CheckReport:
    """Centralizer of the coefficient ring against the kernel subring.

    Under (G abelian, A commutative, A G-simple), the centralizer of A in R
    must be exactly the elements supported on the kernel of the action. The
    centralizer is computed from commutation alone; the kernel side comes from
    the action tables.
    """
    report = CheckReport("centralizer_kernel")
    hypotheses = {
        "G abelian": ctx.group.is_abelian,
        "A commutative": ctx.ring.is_commutative,
        "A G-simple": bool(ctx.g_simplicity.value),
    }
    failed = [name for name, ok in hypotheses.items() if not ok]
    report.verdicts["hypotheses"] = CriterionVerdict(
        "hypotheses", not failed, note=("fails: " + ", ".join(failed)) if failed else "")
    if failed:
        report.conclusions["centralizer_matches_kernel"] = None
        report.notes.append("hypotheses not met; equality not asserted")
        return report
    members = ctx.kernel.members
    ok = all(slot.size == (ctx.ring.size if g in members else 1)
             for g, slot in enumerate(ctx.centralizer_slots))
    report.verdicts["kernel_order"] = CriterionVerdict("kernel_order", True,
                                                       witness=ctx.kernel.order)
    report.conclusions["centralizer_matches_kernel"] = ok
    return report


def center_structure_check(ctx: SkewContext) -> CheckReport:
    """Coefficientwise laws of central elements, plus augmentation behaviour.

    Every central coefficient must twist-commute with the whole coefficient
    ring and satisfy the conjugation-transport law; for abelian groups the
    transport law collapses to fixed-ring membership, which is then asserted
    separately (non-abelian instances have genuine counterexamples, so there
    it is reported but not asserted). The augmentation map must be
    multiplicative exactly when the kernel is all of G.
    """
    ring, group, action = ctx.ring, ctx.group, ctx.action
    report = CheckReport("center_structure")
    gens = ring.additive_generators()
    laws_ok = True
    fixed_ok = True
    # every law is additive in the central element, so checking the rows of
    # the centre's basis checks the whole centre
    for row in ctx.center_basis.rows:
        coeffs = ctx.element_of_vec(row).coeffs
        for g, a in coeffs.items():
            if any(action.apply(h, a) != a for h in range(group.order)):
                fixed_ok = False
            if any(ring.mul(b, a) != ring.mul(a, action.apply(g, b)) for b in gens):
                laws_ok = False
            for h in range(group.order):
                tgt = group.mul_table[group.mul_table[h][g]][group.inv_table[h]]
                if coeffs.get(tgt, ring.zero) != action.apply(h, a):
                    laws_ok = False
    report.conclusions["center_coefficient_laws"] = laws_ok
    report.verdicts["coefficients_in_fixed_ring"] = CriterionVerdict(
        "coefficients_in_fixed_ring", fixed_ok,
        note="" if group.is_abelian else "asserted for abelian groups only")
    if group.is_abelian:
        report.conclusions["abelian_coefficients_fixed"] = fixed_ok
    else:
        report.conclusions["abelian_coefficients_fixed"] = None
        if not fixed_ok:
            report.notes.append(
                "central coefficients escape the fixed ring here: fixed-ring "
                "membership is an abelian-group consequence of the "
                "conjugation-transport law")
    violation = _augmentation_violation(ctx)
    report.conclusions["augmentation_multiplicativity_exact"] = (
        (violation is None) == (ctx.kernel.order == group.order))
    report.verdicts["augmentation_multiplicative"] = CriterionVerdict(
        "augmentation_multiplicative", violation is None, method="oracle",
        witness=None if violation is None else {
            "pair": [violation[0].serialize(), violation[1].serialize()]})
    return report


def _augmentation_violation(ctx: SkewContext) -> tuple | None:
    """A pair (r, s) with eps(rs) != eps(r)eps(s), or None when the
    augmentation eps is multiplicative.

    For r = sum a_g u_g and s = sum b_h u_h, eps(rs) - eps(r)eps(s) is
    sum_{g,h} a_g (sigma_g(b_h) - b_h), which is bilinear in (r, s), so the
    pairs (u_g, b u_e) over g != e and the additive generators b decide it.
    """
    for g in range(1, ctx.group.order):
        for b in ctx.ring.additive_generators():
            r = ctx.unit_monomial(g)
            s = ctx.monomial(b, 0)
            if augmentation(r * s) != augmentation(r) * augmentation(s):
                return (r, s)
    return None


def catalogue_notes(kind: str) -> list[str]:
    """Disclosure notes attached to every report."""
    notes = [
        "coefficients live in finite rings; real or complex scalars are "
        "replaced by finite fields so every brute-force oracle terminates",
    ]
    if kind == "dynamics":
        notes.append(
            "finite discrete point sets stand in for compact Hausdorff spaces; "
            "ideals of the function ring are exactly vanishing ideals of point "
            "subsets, so the dynamical equivalences transfer verbatim")
        notes.append(
            "non-simple minimal faithful instances over non-abelian groups are "
            "finite analogues exhibiting the same implication failure as the "
            "classical infinite examples")
    return notes


# randomized instance generation ------------------------------------------------

@dataclass
class AlgebraInstance:
    name: str
    ctx: SkewContext


_GROUP_CATALOGUE = (
    ("Z2", lambda: GroupTable.cyclic_product([2])),
    ("Z3", lambda: GroupTable.cyclic_product([3])),
    ("Z4", lambda: GroupTable.cyclic_product([4])),
    ("Z2xZ2", lambda: GroupTable.cyclic_product([2, 2])),
    ("Z6", lambda: GroupTable.cyclic_product([6])),
    ("S3", lambda: GroupTable.symmetric(3)),
)


class InstanceSampler:
    """Seeded, reproducible random instances over a fixed catalogue.

    Draws a group, a coefficient ring and a compatible action constructor,
    rejecting instances whose skew ring exceeds ``max_size`` so the oracle
    stays fast. All draws validate before being returned.
    """

    def __init__(self, seed: int, max_size: int = 4096) -> None:
        self.rng = random.Random(seed)
        self.max_size = max_size
        self._groups = [(tag, build()) for tag, build in _GROUP_CATALOGUE]
        self._counter = 0

    def draw(self, predicate=None, attempts: int = 800) -> AlgebraInstance:
        for _ in range(attempts):
            inst = self._draw_once()
            if inst is None:
                continue
            if predicate is None or predicate(inst):
                return inst
        raise RuntimeError("instance sampler exhausted its attempt budget")

    def draw_many(self, count: int, predicate=None) -> list[AlgebraInstance]:
        return [self.draw(predicate) for _ in range(count)]

    def _draw_once(self) -> AlgebraInstance | None:
        rng = self.rng
        self._counter += 1
        tag, group = rng.choice(self._groups)
        family = rng.choice(["modular", "matrix", "function", "function"])
        if family == "modular":
            ring: RingSpec = ModularRing(rng.randint(2, 6))
        elif family == "matrix":
            k, p = rng.choice([(1, 2), (1, 3), (2, 2), (2, 3)])
            ring = MatrixRing(k, p)
        else:
            npts = rng.randint(1, 4)
            q = rng.choice([2, 2, 3, 4])
            ring = FunctionRing(npts, q)
        if ring.size**group.order > self.max_size:
            return None
        action = self._draw_action(group, ring)
        if action is None:
            return None
        if action.validate() is not None:
            return None
        ctx = SkewContext(ring, group, action)
        name = f"{tag}_{_ring_tag(ring)}_{_action_tag(action)}_{self._counter}"
        return AlgebraInstance(name, ctx)

    def _draw_action(self, group: GroupTable, ring: RingSpec):
        rng = self.rng
        choices = ["trivial"]
        if isinstance(ring, FunctionRing):
            choices += ["permutation", "permutation"]
        if isinstance(ring, MatrixRing) and not ring.is_commutative:
            choices += ["conjugation"]
        kind = rng.choice(choices)
        if kind == "trivial":
            return trivial_action(group, ring)
        if kind == "permutation":
            return self._permutation_action(group, ring)
        return self._conjugation_action(group, ring)

    def _permutation_action(self, group: GroupTable, ring: FunctionRing):
        rng = self.rng
        npts = len(ring.points)
        if hasattr(group, "permutations"):
            degree = len(group.permutations[0])
            if degree > npts:
                return None
            perms = []
            for g in group.elements():
                base = group.permutations[group.inv_table[g]]
                perms.append(tuple(base[x] if x < degree else x for x in range(npts)))
        else:
            factors = getattr(group, "factors", None)
            if factors is None:
                return None
            # each cyclic factor rotates the points; its step must have
            # rotation order dividing the factor order
            def rot_order(k: int) -> int:
                return npts // gcd(npts, k) if k else 1

            steps = []
            for n in factors:
                options = [k for k in range(npts) if n % rot_order(k) == 0]
                steps.append(rng.choice(options))
            perms = []
            for tup in group.tuples:
                shift = sum(j * k for j, k in zip(tup, steps)) % npts
                perms.append(tuple((x - shift) % npts for x in range(npts)))
        autos = [RingAutomorphism.coordinate_permutation(ring, p) for p in perms]
        return ActionMap(group, ring, autos)

    def _conjugation_action(self, group: GroupTable, ring: MatrixRing):
        rng = self.rng
        factors = getattr(group, "factors", None)
        if factors is None:
            return None
        units = list(ring.units)
        for _ in range(12):
            picks = [rng.choice(units) for _ in factors]
            table = []
            ok = True
            for tup in group.tuples:
                v = ring.one
                for j, u in zip(tup, picks):
                    for _ in range(j):
                        v = ring.mul(v, u)
                table.append(v)
            autos = [RingAutomorphism.conjugation(ring, v) for v in table]
            action = ActionMap(group, ring, autos)
            if action.validate() is None:
                return action
        return None


def _ring_tag(ring: RingSpec) -> str:
    kind = ring.descriptor[0]
    if kind == "modular":
        return f"Zmod{ring.n}"
    if kind == "matrix":
        return f"M{ring.k}F{ring.p}"
    return f"F{ring.q}x{len(ring.points)}"


def _action_tag(action) -> str:
    kinds = {a.kind for a in action.autos}
    if kinds == {"identity"}:
        return "trivial"
    kinds.discard("identity")
    return "-".join(sorted(kinds))
