"""Spans around the checker's layers, recorded by wrappers the benchmark
installs where the callers look the functions up (module globals such as
``criteria.skew_center`` and class attributes such as
``SkewElement.__mul__``). Nothing in the package is edited.

A span's self time is its duration minus the time covered by its child
spans. Spans are kept in memory and written out once, at the end of the run.
``SkewElement.__mul__`` and ``ActionMap.validate`` run millions of times and
are only aggregated (calls and self time), not kept as spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

OTHER_CHECKS = ("necessary_conditions", "abelian_simplicity_check",
                "commutative_simplicity_check", "outer_simplicity_check",
                "center_containment_check", "centralizer_kernel_check")
DYNAMICS_CHECK_FUNCTIONS = ("faithful_minimal_check", "dynamics_simplicity_check",
                            "abelian_freeness_check")
AGGREGATED = frozenset({"skew.mul", "actions.validate"})


class Tracer:
    """Wrappers, their spans and counters; ``instance`` names the instance
    the spans recorded next belong to."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.instance = ""
        # frames: [name, child seconds, span index]; the root frame absorbs top level
        self._stack: list[list] = [["root", 0.0, -1]]
        self._restore: list[tuple] = []

    # recording ------------------------------------------------------------
    def wrap(self, name: str, fn, after=None):
        stack, spans = self._stack, self.spans
        self_s, calls = self.self_s, self.calls
        keep = name not in AGGREGATED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            index = -1
            if keep:
                index = len(spans)
                spans.append(None)
            frame = [name, 0.0, index]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                duration = t1 - t0
                self_s[name] += duration - frame[1]
                calls[name] += 1
                parent[1] += duration
                if keep:
                    spans[index] = (name, t0, t1, parent[2], self.instance)
            if after is not None:
                after(parent[0], args, result)
            return result

        return wrapper

    def absorb(self, seconds: float) -> None:
        """Count a reference-kernel sample taken inside the current span as
        child time, so that it stays out of every layer's self time."""
        self._stack[-1][1] += seconds

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def _patch_property(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        prop = functools.cached_property(self.wrap(name, original.func))
        prop.__set_name__(cls, attr)
        setattr(cls, attr, prop)

    # installation -------------------------------------------------------------
    def install(self) -> None:
        from skewsimple import actions, closure, criteria, dynamics, instances, report, skew

        counts = self.counts

        def closure_done(parent, args, basis):
            counts["closure.rank_sum"] += basis.rank
            if parent == "skew.full_sweep":
                counts["skew.full_sweep.closures"] += 1
            elif parent == "skew.witness_search":
                counts["skew.witness_search.candidates"] += 1

        def sweep_done(parent, args, result):
            counts["skew.full_sweep.elements"] += args[0].size - 1

        def center_done(parent, args, result):
            counts["skew.skew_center.elements"] += len(result)

        def mul_done(parent, args, result):
            if parent == "criteria.field_obstruction":
                counts["criteria.field_obstruction.products"] += 1

        def canonical_done(parent, args, result):
            counts["report.canonical_json.bytes"] += len(result)

        self._patch(closure.PrimeClosureEngine, "closure", "closure", closure_done)
        self._patch(skew, "_sweep_prime", "skew.full_sweep", sweep_done)
        self._patch(skew, "_sweep_generic", "skew.full_sweep")
        self._patch(skew, "_witness_search", "skew.witness_search")
        self._patch(skew.SkewElement, "__mul__", "skew.mul", mul_done)
        self._patch(skew, "support_reduce", "skew.support_reduce")
        self._patch(skew, "central_witness", "skew.central_witness")
        self._patch_property(skew.SkewContext, "ideal_operator_matrices", "skew.operator_matrices")
        self._patch_property(skew.SkewContext, "unit_monomial_matrices", "skew.operator_matrices")
        self._patch(criteria, "field_obstruction", "criteria.field_obstruction")
        self._patch(actions.ActionMap, "validate", "actions.validate")
        for module in (criteria, report):
            self._patch(module, "skew_center", "skew.skew_center", center_done)
            self._patch(module, "center_structure_check", "criteria.center_structure_check")
            for fn in OTHER_CHECKS:
                self._patch(module, fn, "criteria.other_checks")
        for module in (criteria, skew):
            self._patch(module, "is_G_simple", "actions.is_G_simple")
        for module in (dynamics, report):
            for fn in DYNAMICS_CHECK_FUNCTIONS:
                self._patch(module, fn, "dynamics.checks")
        for module in (instances, report):
            self._patch(module, "parse_instance", "instances.parse_instance")
        self._patch(report, "run_checks", "report.run_checks")
        self._patch(report, "canonical_json", "report.canonical_json", canonical_done)
        self._patch(report, "revalidate_report", "report.revalidate_report")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # results -----------------------------------------------------------------------
    def layer_metrics(self, scale: float, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round layer metrics; times are multiplied by ``scale`` (the
        reference normalisation) and everything is divided by ``rounds``."""
        s, c, k = self.self_s, self.calls, self.counts

        def t(name):
            return s[name] * scale / rounds, "s"

        def n(value):
            return value / rounds, "count"

        elements = k["skew.full_sweep.elements"]
        return {
            "closure.calls": n(c["closure"]),
            "closure.self_s": t("closure"),
            "closure.rank_sum": n(k["closure.rank_sum"]),
            "skew.full_sweep.self_s": t("skew.full_sweep"),
            "skew.full_sweep.closures_per_element": (
                k["skew.full_sweep.closures"] / elements if elements else 0.0, "ratio"),
            "skew.witness_search.self_s": t("skew.witness_search"),
            "skew.witness_search.candidates": n(k["skew.witness_search.candidates"]),
            "skew.skew_center.self_s": t("skew.skew_center"),
            "skew.skew_center.elements": n(k["skew.skew_center.elements"]),
            "skew.mul.calls": n(c["skew.mul"]),
            "skew.mul.self_s": t("skew.mul"),
            "skew.support_reduce.self_s": t("skew.support_reduce"),
            "skew.central_witness.self_s": t("skew.central_witness"),
            "skew.operator_matrices_s": t("skew.operator_matrices"),
            "criteria.field_obstruction.self_s": t("criteria.field_obstruction"),
            "criteria.field_obstruction.products": n(k["criteria.field_obstruction.products"]),
            "criteria.center_structure_check.self_s": t("criteria.center_structure_check"),
            "criteria.other_checks.self_s": t("criteria.other_checks"),
            "actions.is_G_simple.self_s": t("actions.is_G_simple"),
            "actions.validate.self_s": t("actions.validate"),
            "dynamics.checks.self_s": t("dynamics.checks"),
            "instances.parse_instance.calls": n(c["instances.parse_instance"]),
            "instances.parse_instance.self_s": t("instances.parse_instance"),
            "report.run_checks.self_s": t("report.run_checks"),
            "report.canonical_json.self_s": t("report.canonical_json"),
            "report.canonical_json.bytes": (k["report.canonical_json.bytes"] / rounds, "bytes"),
            "report.revalidate_report.self_s": t("report.revalidate_report"),
        }

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                name, t0, t1, parent, instance = span
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "instance": instance}) + "\n")
