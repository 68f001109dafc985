"""The benchmark's layer tracer (``bench/tracer.py``) wraps package functions
by name. Installing it around a fixture check, over F_3 and over F_2, and
on a dynamics fixture, shows that every name it patches exists, that the
wrappers are the ones called, and that uninstalling puts every original
back."""

from pathlib import Path

from skewsimple import instances, report

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _trace_fixture_check(monkeypatch, name: str, spans=()) -> None:
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install()   # a name the package no longer has fails here
        patched = list(tracer._restore)
        assert patched
        for owner, attr, original in patched:
            assert _current(owner, attr) is not original
        spec = instances.parse_instance((FIXTURES / name).read_text(encoding="utf-8"))
        checked = report.run_checks(spec)
        report.canonical_json(checked)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert _current(owner, attr) is original
    metrics = tracer.layer_metrics(1.0, 1)
    for name in ("closure.calls", "skew.operator_matrices_s", "report.run_checks.self_s",
                 "instances.parse_instance.calls", "report.canonical_json.bytes", *spans):
        assert metrics[name][0] > 0, name


def test_tracer_patches_existing_names_and_restores_them(monkeypatch):
    _trace_fixture_check(monkeypatch, "inner_conjugation_f3.json")


def test_tracer_counts_the_closures_over_f2(monkeypatch):
    # every closure of swap2 is over F_2, on packed rows
    _trace_fixture_check(monkeypatch, "swap2.json")


def test_tracer_reaches_the_facts_cached_on_the_context(monkeypatch):
    # the facts are decided through the module globals the tracer wraps
    _trace_fixture_check(monkeypatch, "natural_s3.json", (
        "dynamics.checks.self_s", "criteria.other_checks.self_s",
        "actions.is_G_simple.self_s", "criteria.field_obstruction.self_s",
        "skew.witness_search.self_s"))
