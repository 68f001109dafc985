"""Check orchestration and self-checking machine-readable reports.

Reports are reproducible bit-for-bit for a given (instance, seed, version):
the canonical serialization excludes wall-clock timings, which are opt-in.
Every witness a report claims can be revalidated against a rebuilt instance.
"""

from __future__ import annotations

import json
import time

from . import __version__, canonical, schema
from .criteria import (abelian_simplicity_check, catalogue_notes, center_containment_check,
                       center_structure_check, centralizer_kernel_check,
                       commutative_simplicity_check, necessary_conditions,
                       outer_simplicity_check)
from .dynamics import (TransformationGroup, abelian_freeness_check, dynamics_simplicity_check,
                       faithful_minimal_check)
from .errors import CapacityError, DomainError, InstanceParseError, PreconditionError
from .instances import InstanceSpec, parse_instance
from .skew import SkewContext, SkewElement, augmentation, is_central, skew_ideal_closure
from .skew import skew_center  # noqa: F401  (``bench/tracer.py`` wraps it under this name)

ALGEBRA_CHECKS = (
    "necessary_conditions",
    "abelian_simplicity",
    "commutative_simplicity",
    "outer_simplicity",
    "center_containment",
    "centralizer_kernel",
    "center_structure",
)
DYNAMICS_CHECKS = ("faithful_minimal", "dynamics_simplicity", "abelian_freeness")
ALL_CHECKS = ALGEBRA_CHECKS + DYNAMICS_CHECKS

_DECIDED = {"type": ["boolean", "null"]}
_STRINGS = {"type": "array", "items": {"type": "string"}}
_CHECK = {"type": "object", "properties": {
    "verdicts": {"type": "object", "additionalProperties": {
        "type": "object", "properties": {"value": _DECIDED}, "required": ["value"]}},
    "conclusions": {"type": "object", "additionalProperties": _DECIDED}}}
# what ``render_text`` and ``revalidate_report`` read of a saved report
REPORT_SCHEMA = {
    "type": "object",
    "properties": {"instance": {"type": "object", "required": ["name"]},
                   "version": {"type": "string"}, "selection": _STRINGS, "violations": _STRINGS,
                   "notes": _STRINGS, "checks": {"type": "object", "additionalProperties": _CHECK}},
    "required": ["instance", "version", "selection", "checks", "violations"],
}
schema.check_schema(REPORT_SCHEMA)


def available_checks(spec: InstanceSpec) -> tuple[str, ...]:
    return ALL_CHECKS if spec.kind == "dynamics" else ALGEBRA_CHECKS


def run_checks(spec: InstanceSpec, selection=None) -> dict:
    """Run the selected checks and assemble the instance report.

    Per-check domain/precondition/capacity failures are recorded in the report
    entry for that check without aborting the rest. The report's
    ``violations`` list is non-empty exactly when an asserted implication
    failed somewhere.
    """
    allowed = available_checks(spec)
    if selection is None:
        selection = list(allowed)
    unknown = [name for name in selection if name not in ALL_CHECKS]
    if unknown:
        raise InstanceParseError(f"unknown check names: {unknown}")
    inapplicable = [name for name in selection if name not in allowed]
    if inapplicable:
        raise InstanceParseError(
            f"checks {inapplicable} do not apply to a {spec.kind} instance")
    built = spec.build()
    dyn = built if isinstance(built, TransformationGroup) else None
    ctx = built if dyn is None else dyn.context
    checks: dict[str, dict] = {}
    timings: dict[str, float] = {}
    violations: list[str] = []
    for name in selection:
        start = time.perf_counter()
        entry = _run_one(name, ctx, dyn)
        timings[name] = round(time.perf_counter() - start, 6)
        checks[name] = entry
        for v in entry.get("violations", []):
            violations.append(f"{name}.{v}")
    report = {
        "format_version": 1,
        "version": __version__,
        "instance": spec.serialize(),
        "seed": spec.seed,
        "selection": list(selection),
        "checks": checks,
        "violations": violations,
        "notes": catalogue_notes(spec.kind),
        "timings": timings,
    }
    return report


def _run_one(name: str, ctx: SkewContext, dyn: TransformationGroup | None) -> dict:
    runner = {
        "necessary_conditions": lambda: necessary_conditions(ctx),
        "abelian_simplicity": lambda: abelian_simplicity_check(ctx),
        "commutative_simplicity": lambda: commutative_simplicity_check(ctx),
        "outer_simplicity": lambda: outer_simplicity_check(ctx),
        "center_containment": lambda: center_containment_check(ctx),
        "centralizer_kernel": lambda: centralizer_kernel_check(ctx),
        "center_structure": lambda: center_structure_check(ctx),
        "faithful_minimal": lambda: faithful_minimal_check(dyn),
        "dynamics_simplicity": lambda: dynamics_simplicity_check(dyn),
        "abelian_freeness": lambda: abelian_freeness_check(dyn),
    }[name]
    try:
        result = runner()
    except PreconditionError as exc:
        return {"status": "precondition_failed", "hypothesis": exc.hypothesis,
                "message": str(exc)}
    except CapacityError as exc:
        return {"status": "capacity_exceeded", "cap": exc.cap_name,
                "message": str(exc)}
    except DomainError as exc:
        return {"status": "not_applicable", "message": str(exc)}
    out = result.as_json()
    out["status"] = "ran"
    return out


# serialization ------------------------------------------------------------------

def canonical_json(report: dict, *, timings: bool = False) -> str:
    """Deterministic serialization (``canonical.dumps``); timings excluded
    unless requested."""
    return canonical.dumps({k: v for k, v in report.items() if timings or k != "timings"})


def render_text(report: dict) -> str:
    lines = [f"instance: {report['instance']['name']}",
             f"version:  {report['version']}"]
    for name in report["selection"]:
        entry = report["checks"][name]
        status = entry.get("status")
        if status != "ran":
            lines.append(f"  {name}: {status} ({entry.get('message', '')})")
            continue
        lines.append(f"  {name}:")
        for key, verdict in entry.get("verdicts", {}).items():
            value = verdict["value"]
            shown = {True: "yes", False: "no", None: "undetermined"}[value]
            note = f"  [{verdict['note']}]" if verdict.get("note") else ""
            lines.append(f"    {key} = {shown}{note}")
        for key, value in entry.get("conclusions", {}).items():
            shown = {True: "holds", False: "VIOLATED", None: "n/a"}[value]
            lines.append(f"    => {key}: {shown}")
    if report["violations"]:
        lines.append("violations: " + ", ".join(report["violations"]))
    else:
        lines.append("violations: none")
    for note in report.get("notes", []):
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


# witness revalidation --------------------------------------------------------------

def check_report_document(report) -> None:
    """Refuse, with ``InstanceParseError``, a saved report that does not
    have the shape of REPORT_SCHEMA or selects a check it does not hold."""
    violation = schema.first_violation(REPORT_SCHEMA, report)
    if violation is not None:
        path, message = violation
        raise InstanceParseError(f"malformed report: {message}", path=path)
    missing = [name for name in report["selection"] if name not in report["checks"]]
    if missing:
        raise InstanceParseError(f"malformed report: selected checks {missing} are missing")


def _group_index(ctx: SkewContext, name) -> int:
    if name not in ctx.group.names:
        raise DomainError(f"unknown group element {json.dumps(name, default=repr)[:40]}")
    return ctx.group.names.index(name)


def _decode_element(ctx: SkewContext, serialized) -> SkewElement:
    """A serialized element: a list of [group element, coefficient] pairs."""
    if not isinstance(serialized, list) or not all(
            isinstance(term, list) and len(term) == 2 for term in serialized):
        raise DomainError("an element must be a list of [group element, coefficient] pairs")
    return ctx.element({_group_index(ctx, gname): ctx.ring.payload_from_json(payload)
                        for gname, payload in serialized})


# the verdicts whose writer attaches a witness to every False value, each with
# the key that witness is read under
WITNESS_KEYS = {
    ("necessary_conditions", "center_is_field"): "element",
    ("necessary_conditions", "g_simple"): "coefficient",
    ("necessary_conditions", "sigma_injective"): "group_element",
    ("abelian_simplicity", "simple"): "element",
    ("commutative_simplicity", "max_commutative"): "element",
    ("center_containment", "center_in_identity_component"): "element",
    ("center_structure", "augmentation_multiplicative"): "pair",
}


def revalidate_report(report: dict) -> list[str]:
    """Recheck every claimed witness against a rebuilt instance.

    Returns a list of problems; an empty list means all witnesses check out.
    A False value of a verdict in WITNESS_KEYS with no witness under its key
    is a problem too. A check whose status is not "ran" is run again on the
    rebuilt instance, and a status other than the saved one is a problem, as
    is an entry naming a check the instance's kind does not have.
    A document that ``check_report_document`` refuses raises
    ``InstanceParseError``; a witness that does not decode, ``DomainError``.
    """
    check_report_document(report)
    try:
        spec = parse_instance(json.dumps(report["instance"]))
    except InstanceParseError as exc:
        raise InstanceParseError(f"cannot rebuild instance: {exc}") from exc
    built = spec.build()
    dyn = built if isinstance(built, TransformationGroup) else None
    ctx = built if dyn is None else dyn.context
    allowed = available_checks(spec)
    problems: list[str] = []
    for cname, entry in report.get("checks", {}).items():
        if cname not in allowed:
            problems.append(f"{cname}: not a check of {spec.kind} instances")
            continue
        status = entry.get("status")
        if status != "ran":
            rerun = _run_one(cname, ctx, dyn)["status"]
            if rerun != status:
                problems.append(f"{cname}: saved status {status!r}, a rerun gives {rerun!r}")
            continue
        for vname, verdict in entry.get("verdicts", {}).items():
            witness = verdict.get("witness")
            if not isinstance(witness, dict):
                witness = {}
            key = WITNESS_KEYS.get((cname, vname))
            if verdict["value"] is False and key is not None and key not in witness:
                problems.append(f"{cname}.{vname}: false without a witness")
                continue
            if not witness:
                continue
            try:
                issue = _check_witness(ctx, vname, verdict["value"], witness)
            except DomainError as exc:
                raise DomainError(f"witness of {cname}.{vname}: {exc}") from exc
            if issue:
                problems.append(f"{cname}.{vname}: {issue}")
    return problems


def _check_witness(ctx: SkewContext, assertion: str, value, witness: dict) -> str | None:
    ring = ctx.ring
    if "element" in witness:
        elem = _decode_element(ctx, witness["element"])
        if assertion == "simple" and value is False:
            ideal = skew_ideal_closure(ctx, [elem])
            return None if (not elem.is_zero() and not ideal.is_full) else \
                "claimed non-simplicity witness generates the full ring"
        if assertion == "center_is_field" and value is False:
            if elem.is_zero():
                return "claimed centre obstruction is zero"
            if not is_central(elem):
                return "claimed centre obstruction is not central"
            # for central z, RzR = zR, which is R exactly when z is a unit of
            # R (R is finite), that is of Z
            return None if not skew_ideal_closure(ctx, [elem]).is_full else \
                "claimed centre obstruction is invertible in the centre"
        if assertion == "max_commutative" and value is False:
            if elem.support <= {0}:
                return "claimed commuting witness lies in the coefficient ring"
            gens = [ctx.monomial(b, 0) for b in ring.additive_generators()]
            if any(elem * b != b * elem for b in gens):
                return "claimed commuting witness does not commute"
            return None
        if assertion == "center_in_identity_component" and value is False:
            if elem.support <= {0}:
                return "claimed witness is supported at the identity"
            return None if is_central(elem) else "claimed witness is not central"
        return None
    if "coefficient" in witness and assertion == "g_simple" and value is False:
        from .actions import invariant_ideal_closure
        payload = ring.payload_from_json(witness["coefficient"])
        if payload == ring.zero:
            return "claimed invariant-ideal witness is zero"
        ideal = invariant_ideal_closure(ctx.action, [payload])
        return None if not ideal.is_full else \
            "claimed invariant-ideal witness generates everything"
    if "group_element" in witness and assertion == "sigma_injective" and value is False:
        g = _group_index(ctx, witness["group_element"])
        if g == 0:
            return "kernel witness is the identity"
        return None if ctx.action.autos[g].is_identity() else \
            "claimed kernel element does not act trivially"
    if "pair" in witness and assertion == "augmentation_multiplicative" and value is False:
        pair = witness["pair"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise DomainError("a pair must be a list of two elements")
        r, s = (_decode_element(ctx, x) for x in pair)
        if augmentation(r * s) != augmentation(r) * augmentation(s):
            return None
        return "claimed augmentation violation does not violate"
    return None
