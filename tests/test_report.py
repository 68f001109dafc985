import json
from pathlib import Path

import pytest

from skewsimple.instances import load_instance
from skewsimple.report import (ALGEBRA_CHECKS, canonical_json, render_text,
                               revalidate_report, run_checks)

FIXTURES = Path(__file__).parent / "fixtures"


def test_run_checks_all_green_on_simple_instance():
    spec = load_instance(FIXTURES / "swap2.json")
    report = run_checks(spec)
    assert report["violations"] == []
    assert set(report["selection"]) == set(ALGEBRA_CHECKS)
    for entry in report["checks"].values():
        assert entry["status"] in ("ran", "not_applicable", "precondition_failed")


def test_run_checks_nonsimple_instance_has_witness():
    spec = load_instance(FIXTURES / "trivial_group_ring.json")
    report = run_checks(spec)
    assert report["violations"] == []
    simple = report["checks"]["abelian_simplicity"]["verdicts"]["simple"]
    assert simple["value"] is False
    assert "witness" in simple


def test_empty_selection_gives_instance_echo_only():
    spec = load_instance(FIXTURES / "swap2.json")
    report = run_checks(spec, [])
    assert report["checks"] == {}
    assert report["instance"]["name"] == "swap2"


def test_unknown_check_name_rejected():
    from skewsimple import InstanceParseError
    spec = load_instance(FIXTURES / "swap2.json")
    with pytest.raises(InstanceParseError):
        run_checks(spec, ["nonexistent_check"])
    with pytest.raises(InstanceParseError):
        run_checks(spec, ["dynamics_simplicity"])  # dynamics check on algebra instance


def test_reports_reproducible_bit_for_bit():
    spec = load_instance(FIXTURES / "inner_conjugation_f2.json")
    a = canonical_json(run_checks(spec))
    b = canonical_json(run_checks(spec))
    assert a == b
    assert '"timings"' not in a
    with_timings = canonical_json(run_checks(spec), timings=True)
    assert '"timings"' in with_timings


def test_render_text_mentions_conclusions():
    spec = load_instance(FIXTURES / "swap2.json")
    text = render_text(run_checks(spec))
    assert "abelian_equivalence: holds" in text
    assert "violations: none" in text


def test_witness_revalidation_clean():
    for name in ("swap2", "inner_conjugation_f2", "trivial_group_ring", "natural_s3"):
        spec = load_instance(FIXTURES / f"{name}.json")
        report = run_checks(spec)
        assert revalidate_report(json.loads(canonical_json(report))) == []


def test_witness_revalidation_detects_tampering():
    spec = load_instance(FIXTURES / "trivial_group_ring.json")
    report = json.loads(canonical_json(run_checks(spec)))
    verdicts = report["checks"]["abelian_simplicity"]["verdicts"]
    # swap the non-simplicity witness for a unit: its ideal is everything
    verdicts["simple"]["witness"] = {"element": [["0", 1]]}
    problems = revalidate_report(report)
    assert any("simple" in p for p in problems)


def test_dynamics_report_runs_all_checks():
    spec = load_instance(FIXTURES / "natural_s3.json")
    report = run_checks(spec)
    assert report["violations"] == []
    assert report["checks"]["dynamics_simplicity"]["status"] == "ran"
    assert report["checks"]["abelian_freeness"]["status"] == "not_applicable"
    assert any("compact Hausdorff" in note for note in report["notes"])


@pytest.mark.parametrize("n,p", [(10, 2), (15, 3)])
def test_composite_characteristic_above_cap_has_scalar_witness(n, p):
    # Z/n x| S3 has n^6 elements, above the enumeration cap; p*1 generates
    # a proper ideal, which the witness search must find and report
    from skewsimple.instances import parse_instance
    doc = {"name": f"z{n}_s3", "witness_search": True,
           "ring": {"kind": "modular", "n": n},
           "group": {"kind": "symmetric", "degree": 3},
           "action": {"kind": "trivial"}}
    spec = parse_instance(json.dumps(doc))
    assert spec.build().size > spec.caps().enumeration
    report = json.loads(canonical_json(run_checks(spec)))
    for name in ("necessary_conditions", "abelian_simplicity", "commutative_simplicity"):
        assert report["checks"][name]["status"] == "ran"
        assert report["checks"][name]["verdicts"]["simple"]["value"] is False
    witness = report["checks"]["abelian_simplicity"]["verdicts"]["simple"]["witness"]
    assert witness == {"element": [["e", p]]}
    assert revalidate_report(report) == []


@pytest.mark.parametrize("n,orders", [(2, [17]), (257, [2])])
def test_centre_above_cap_is_decided(n, orders):
    # the group ring (Z/n)[G] is commutative, so its centre has more elements
    # than the enumeration cap; the field test works on the centre's basis
    from skewsimple.instances import parse_instance
    doc = {"name": f"z{n}_centre", "witness_search": True,
           "ring": {"kind": "modular", "n": n},
           "group": {"kind": "cyclic_product", "orders": orders},
           "action": {"kind": "trivial"}}
    spec = parse_instance(json.dumps(doc))
    ctx = spec.build()
    assert ctx.size > spec.caps().enumeration
    report = json.loads(canonical_json(run_checks(spec)))
    for name in ("necessary_conditions", "abelian_simplicity", "center_containment",
                 "center_structure"):
        assert report["checks"][name]["status"] == "ran"
    field = report["checks"]["necessary_conditions"]["verdicts"]["center_is_field"]
    assert field["value"] is False and "witness" in field
    assert report["violations"] == []
    assert revalidate_report(report) == []


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_fixture_reports_match_golden_bytes(path):
    golden = Path(__file__).parent / "golden" / path.name
    assert canonical_json(run_checks(load_instance(path))) == golden.read_text()


@pytest.mark.parametrize("obstruction,problem", [
    ("one", "invertible in the centre"), ("zero", "is zero")])
def test_centre_obstruction_revalidation_rejects_tampering(obstruction, problem):
    # the centre of M2(F2) x| Z/2 is not a field; claim a unit (or zero) instead
    spec = load_instance(FIXTURES / "inner_conjugation_f2.json")
    report = json.loads(canonical_json(run_checks(spec)))
    verdict = report["checks"]["necessary_conditions"]["verdicts"]["center_is_field"]
    assert verdict["value"] is False
    assert revalidate_report(report) == []
    ctx = spec.build()
    verdict["witness"] = {"element": getattr(ctx, obstruction).serialize()}
    problems = revalidate_report(report)
    assert len(problems) == 1
    assert problems[0].startswith("necessary_conditions.center_is_field")
    assert problem in problems[0]


def test_check_and_report_build_the_instance_twice(monkeypatch):
    from skewsimple.instances import InstanceSpec
    builds = []
    construct = InstanceSpec._construct
    monkeypatch.setattr(InstanceSpec, "_construct",
                        lambda spec: builds.append(spec.name) or construct(spec))
    spec = load_instance(FIXTURES / "natural_s3.json")
    report = json.loads(canonical_json(run_checks(spec)))
    assert revalidate_report(report) == []
    assert builds == ["natural_s3", "natural_s3"]  # one per parse
