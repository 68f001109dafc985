"""The benchmark's layer tracer (``bench/tracer.py``) wraps package functions
by name. Installing it around one fixture check shows that every name it
patches exists, that the wrappers are the ones called, and that uninstalling
puts every original back."""

from pathlib import Path

from skewsimple import instances, report

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "inner_conjugation_f3.json"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_patches_existing_names_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracer import Tracer

    tracer = Tracer()
    try:
        tracer.install()   # a name the package no longer has fails here
        patched = list(tracer._restore)
        assert patched
        for owner, attr, original in patched:
            assert _current(owner, attr) is not original
        spec = instances.parse_instance(FIXTURE.read_text(encoding="utf-8"))
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
