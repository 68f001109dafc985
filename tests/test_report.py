import json
from pathlib import Path

import jsonschema
import pytest

from skewsimple.instances import load_instance
from skewsimple.report import (ALGEBRA_CHECKS, REPORT_SCHEMA, WITNESS_KEYS, canonical_json,
                               check_report_document, render_text, revalidate_report,
                               run_checks)

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


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_witness_revalidation_clean(path):
    report = run_checks(load_instance(path))
    assert revalidate_report(json.loads(canonical_json(report))) == []


@pytest.fixture(scope="module")
def fixture_reports() -> dict:
    return {path.stem: json.loads(canonical_json(run_checks(load_instance(path))))
            for path in sorted(FIXTURES.glob("*.json"))}


@pytest.mark.parametrize("check,verdict", sorted(WITNESS_KEYS),
                         ids=[".".join(key) for key in sorted(WITNESS_KEYS)])
def test_a_false_verdict_without_its_witness_is_flagged(fixture_reports, check, verdict):
    # on each fixture report, drop the witness of a False value, or flip a
    # True one to False: either leaves one problem, naming the verdict
    tampered = 0
    for name, report in fixture_reports.items():
        entry = report["checks"].get(check, {})
        if entry.get("status") != "ran":
            continue
        doc = json.loads(json.dumps(report))
        claim = doc["checks"][check]["verdicts"][verdict]
        if claim["value"] is False:
            del claim["witness"]
        else:
            assert claim["value"] is True and "witness" not in claim, name
            claim["value"] = False
        assert revalidate_report(doc) == [f"{check}.{verdict}: false without a witness"], name
        tampered += 1
    assert tampered


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


# R = F_3^8[Z/8] is commutative, so its centre (all of R, dim 64) is no field
TRIVIAL_Z8_F3 = {"name": "trivial_z8_f3", "witness_search": True,
                 "ring": {"kind": "function", "points": 8, "q": 3},
                 "group": {"kind": "cyclic_product", "orders": [8]},
                 "action": {"kind": "trivial"}}
INNER_CONJUGATION_F2 = (FIXTURES / "inner_conjugation_f2.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("text,obstruction,problem", [
    pytest.param(INNER_CONJUGATION_F2, "one", "invertible in the centre",
                 id="one-invertible in the centre"),
    pytest.param(INNER_CONJUGATION_F2, "zero", "is zero", id="zero-is zero"),
    pytest.param(json.dumps(TRIVIAL_Z8_F3), "one", "invertible in the centre",
                 id="dim_64-one-invertible in the centre")])
def test_centre_obstruction_revalidation_rejects_tampering(text, obstruction, problem):
    # the centre of M2(F2) x| Z/2 (of F_3^8[Z/8]) is not a field; claim a
    # unit (or zero) instead
    from skewsimple.instances import parse_instance
    spec = parse_instance(text)
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


# F_2^2 x| Z/2 with the trivial action: every ideal of A = F_2^2 is invariant
F2X2_TRIVIAL = {"name": "f2x2_trivial", "ring": {"kind": "function", "points": 2, "q": 2},
                "group": {"kind": "cyclic_product", "orders": [2]},
                "action": {"kind": "trivial"}}


def _f2x2_trivial_report() -> dict:
    from skewsimple.instances import parse_instance
    return json.loads(canonical_json(run_checks(parse_instance(json.dumps(F2X2_TRIVIAL)))))


@pytest.mark.parametrize("coefficient,problem", [
    ([1, 1], "generates everything"), ([0, 0], "is zero")])
def test_g_simplicity_revalidation_rejects_tampering(coefficient, problem):
    # claim the unit (1, 1), or zero, as the proper invariant ideal's generator
    report = _f2x2_trivial_report()
    verdict = report["checks"]["necessary_conditions"]["verdicts"]["g_simple"]
    assert verdict == {"assertion": "g_simple", "method": "criterion", "value": False,
                       "witness": {"coefficient": [0, 1]}}
    assert revalidate_report(report) == []
    verdict["witness"] = {"coefficient": coefficient}
    problems = revalidate_report(report)
    assert len(problems) == 1
    assert problems[0].startswith("necessary_conditions.g_simple")
    assert problem in problems[0]


@pytest.mark.parametrize("check,verdict,witness,message", [
    ("necessary_conditions", "g_simple", {"coefficient": 1}, "must be a list"),
    ("necessary_conditions", "sigma_injective", {"group_element": "x"}, "unknown group element"),
    ("abelian_simplicity", "simple", {"element": [["1", [1, 0]], ["e"]]}, "pairs"),
    ("center_structure", "augmentation_multiplicative", {"pair": [[]]}, "two elements")])
def test_a_witness_that_does_not_decode_is_refused(check, verdict, witness, message):
    from skewsimple import DomainError
    report = _f2x2_trivial_report()
    # every witness is read for a False verdict; the augmentation holds here
    report["checks"][check]["verdicts"][verdict].update(value=False, witness=witness)
    with pytest.raises(DomainError, match=message) as err:
        revalidate_report(report)
    assert str(err.value).startswith(f"witness of {check}.{verdict}: ")


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_fresh_reports_have_the_shape_the_report_command_reads(path):
    jsonschema.Draft202012Validator.check_schema(REPORT_SCHEMA)
    report = run_checks(load_instance(path))
    for timings in (False, True):
        check_report_document(json.loads(canonical_json(report, timings=timings)))


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
