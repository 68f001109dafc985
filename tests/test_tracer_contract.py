"""The benchmark's layer tracer (``bench/tracer.py``) wraps package functions
by name. Installing it around a fixture check, over F_3 and over F_2, shows
that every name it patches exists, that the wrappers are the ones called,
and that uninstalling puts every original back."""

from pathlib import Path

from skewsimple import instances, report

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _trace_fixture_check(monkeypatch, name: str) -> None:
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
                 "instances.parse_instance.calls", "report.canonical_json.bytes"):
        assert metrics[name][0] > 0, name


def test_tracer_patches_existing_names_and_restores_them(monkeypatch):
    _trace_fixture_check(monkeypatch, "inner_conjugation_f3.json")


def test_tracer_counts_the_closures_over_f2(monkeypatch):
    # every closure of swap2 is over F_2, on packed rows
    _trace_fixture_check(monkeypatch, "swap2.json")
