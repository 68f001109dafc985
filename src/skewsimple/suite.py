"""Randomized equivalence sweeps and the dynamics catalogue runner.

Each sweep draws seeded instances satisfying the hypotheses of one criterion
and asserts the criterion against the oracle on every draw. Violations are
collected, never swallowed; a clean run returns zero violations. Qualifying
instances (abelian group, action-simple coefficients) additionally exercise
the constructive support-reduction and central-witness procedures on the
ideals the sweep produces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .criteria import (AlgebraInstance, CheckReport, InstanceSampler,
                       abelian_simplicity_check, center_containment_check,
                       center_structure_check, centralizer_kernel_check,
                       commutative_simplicity_check, necessary_conditions,
                       outer_simplicity_check)
from .dynamics import (abelian_freeness_check, catalogue, dynamics_simplicity_check,
                       faithful_minimal_check)
from .errors import CapacityError
from .skew import central_witness, coeff_at_e, is_central, skew_ideal_closure, support_reduce


@dataclass
class SweepResult:
    name: str
    instances: int = 0
    violations: list[str] = field(default_factory=list)
    constructive_checks: int = 0
    seconds: float = 0.0

    def as_json(self) -> dict:
        return {"name": self.name, "instances": self.instances,
                "violations": self.violations,
                "constructive_checks": self.constructive_checks,
                "seconds": round(self.seconds, 3)}


def _is_abelian(inst: AlgebraInstance) -> bool:
    return inst.ctx.group.is_abelian

def _is_commutative(inst: AlgebraInstance) -> bool:
    return inst.ctx.ring.is_commutative

def _is_outer(inst: AlgebraInstance) -> bool:
    return inst.ctx.group.is_abelian and inst.evaluation.outer

def _is_g_simple(inst: AlgebraInstance) -> bool:
    return bool(inst.evaluation.g_simplicity.value)


SWEEPS: dict[str, tuple] = {
    # name: (predicate, check)
    "necessary_conditions": (None, necessary_conditions),
    "abelian_simplicity": (_is_abelian, abelian_simplicity_check),
    "abelian_commutative_simplicity": (
        lambda i: _is_abelian(i) and _is_commutative(i), abelian_simplicity_check),
    "commutative_simplicity": (_is_commutative, commutative_simplicity_check),
    "outer_simplicity": (_is_outer, outer_simplicity_check),
    "centralizer_kernel": (
        lambda i: _is_abelian(i) and _is_commutative(i) and _is_g_simple(i),
        centralizer_kernel_check),
    "center_containment": (None, center_containment_check),
    "center_structure": (None, center_structure_check),
}


def run_sweep(name: str, seed: int, count: int, max_size: int = 4096) -> SweepResult:
    """One named sweep over ``count`` fresh instances."""
    predicate, check = SWEEPS[name]
    sampler = InstanceSampler(_derive_seed(seed, name), max_size=max_size)
    result = SweepResult(name)
    start = time.perf_counter()
    for _ in range(count):
        inst = sampler.draw(predicate)
        report: CheckReport = check(inst.evaluation)
        result.instances += 1
        for v in report.violations:
            result.violations.append(f"{inst.name}:{report.name}.{v}")
        result.constructive_checks += _constructive_probe(inst, result.violations)
    result.seconds = time.perf_counter() - start
    return result


def _constructive_probe(inst: AlgebraInstance, violations: list[str]) -> int:
    """Exercise support_reduce / central_witness on ideals this instance yields.

    Applies only under the procedures' hypotheses (abelian group, action-simple
    coefficient ring, ring within the cap). The procedures assert their own
    postconditions; assertion failures are converted into sweep violations.
    """
    ctx = inst.ctx
    ev = inst.evaluation
    if not ctx.group.is_abelian or not bool(ev.g_simplicity.value):
        return 0
    if ctx.size > ctx.caps.enumeration:
        return 0
    done = 0
    ideals = []
    if ev.simplicity.witness_ideal is not None:
        ideals.append(ev.simplicity.witness_ideal)
    seed_elem = ctx.element_of_rank(1 + (ctx.size - 1) // 2)
    ideals.append(skew_ideal_closure(ctx, [seed_elem]))
    for ideal in ideals:
        if ideal.is_zero:
            continue
        try:
            witness = central_witness(ctx, ideal)
            assert ideal.contains(witness)
            assert is_central(witness)
            assert coeff_at_e(witness).payload == ctx.ring.one
            for gen in ideal.generators:
                if gen.is_zero():
                    continue
                reduced = support_reduce(ctx, gen)
                assert len(reduced.support) <= len(gen.support)
                assert coeff_at_e(reduced).payload == ctx.ring.one
            done += 1
        except AssertionError as exc:
            violations.append(f"{inst.name}:constructive.{exc}")
        except CapacityError:
            pass
    return done


def run_randomized_suite(seed: int, count: int, max_size: int = 4096) -> dict:
    """All sweeps at the given per-sweep instance count."""
    results = [run_sweep(name, seed, count, max_size) for name in SWEEPS]
    return {
        "seed": seed,
        "count": count,
        "sweeps": [r.as_json() for r in results],
        "violations": [v for r in results for v in r.violations],
    }


def run_dynamics_catalogue() -> dict:
    """Every catalogue action through the dynamical checks."""
    entries = []
    violations: list[str] = []
    start = time.perf_counter()
    for T in catalogue():
        reports = [faithful_minimal_check(T), dynamics_simplicity_check(T)]
        if T.group.is_abelian:
            reports.append(abelian_freeness_check(T))
        entry = {"name": T.name,
                 "simple": reports[1].verdicts["simple"].value,
                 "violations": []}
        for rep in reports:
            for v in rep.violations:
                entry["violations"].append(f"{rep.name}.{v}")
                violations.append(f"{T.name}:{rep.name}.{v}")
        entries.append(entry)
    return {"instances": entries, "violations": violations,
            "seconds": round(time.perf_counter() - start, 3)}


def _derive_seed(seed: int, name: str) -> int:
    value = seed & 0xFFFFFFFF
    for ch in name:
        value = (value * 1000003 + ord(ch)) & 0xFFFFFFFF
    return value
