import json
import os
import re
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

from skewsimple import InstanceParseError
from skewsimple.instances import parse_instance

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"


def run_python(*args, **kwargs):
    # the package is imported from the source tree, installed or not
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, **kwargs)


def run_cli(*args, **kwargs):
    return run_python("-m", "skewsimple.cli", *args, **kwargs)


def test_check_green_instance_exits_zero():
    result = run_cli("check", str(FIXTURES / "swap2.json"))
    assert result.returncode == 0
    assert "violations: none" in result.stdout


def test_check_json_output_is_canonical(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("check", str(FIXTURES / "swap2.json"), "--format", "json",
                     "--out", str(out))
    assert result.returncode == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["instance"]["name"] == "swap2"
    assert doc["violations"] == []
    again = run_cli("check", str(FIXTURES / "swap2.json"), "--format", "json")
    assert again.stdout == out.read_text(encoding="utf-8")


def test_check_selection_flag():
    result = run_cli("check", str(FIXTURES / "swap2.json"),
                     "--checks", "necessary_conditions,center_containment")
    assert result.returncode == 0
    assert "abelian_simplicity" not in result.stdout
    assert "necessary_conditions" in result.stdout


def test_check_rejects_bad_input_with_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "oops"', encoding="utf-8")
    result = run_cli("check", str(bad))
    assert result.returncode == 2
    assert "input error" in result.stderr

    missing = run_cli("check", str(tmp_path / "nope.json"))
    assert missing.returncode == 2


_Z2 = {"kind": "cyclic_product", "orders": [2]}
BUILD_ERRORS = {
    "modular_ring_without_n": {"name": "no_n", "ring": {"kind": "modular"},
                               "group": _Z2, "action": {"kind": "trivial"}},
    "modular_ring_n_null": {"name": "null_n", "ring": {"kind": "modular", "n": None},
                            "group": _Z2, "action": {"kind": "trivial"}},
    "function_ring_q_not_prime_power": {
        "name": "q6", "dynamics": {"points": 2, "q": 6, "group": _Z2, "act": [[0, 1], [1, 0]]}},
    "function_ring_q_large_prime": {
        "name": "q1000000007",
        "dynamics": {"points": 2, "q": 1000000007, "group": _Z2, "act": [[0, 1], [1, 0]]}},
    "group_above_cap": {"name": "z300", "ring": {"kind": "modular", "n": 2},
                        "group": {"kind": "cyclic_product", "orders": [300]},
                        "action": {"kind": "trivial"}},
    "group_far_above_cap": {"name": "z2000", "ring": {"kind": "modular", "n": 2},
                            "group": {"kind": "cyclic_product", "orders": [2000]},
                            "action": {"kind": "trivial"}},
    # |G| * dim_A is checked before the action is built and validated
    "function_ring_2000_points": {"name": "f2000", "ring": {"kind": "function", "points": 2000,
                                                            "q": 2},
                                  "group": _Z2, "action": {"kind": "trivial"}},
    "function_ring_5000_points": {"name": "f5000", "ring": {"kind": "function", "points": 5000,
                                                            "q": 2},
                                  "group": _Z2, "action": {"kind": "trivial"}},
    # coordinates over Z/n are int64, so n >= 2^63 is refused when the ring is built
    "modular_ring_n_above_int64": {"name": "n1e30", "group": _Z2, "action": {"kind": "trivial"},
                                   "ring": {"kind": "modular",
                                            "n": 1000000000000000000000000000057}},
    # the transpose of M2(F2) is additive and fixes 1 but reverses products;
    # its violation names a pair of matrices
    "matrix_transpose_table": {
        "name": "transpose", "ring": {"kind": "matrix", "size": 2, "prime": 2}, "group": _Z2,
        "action": {"kind": "table", "tables": [
            [[[a, b], [c, d]] for a, b, c, d in product(range(2), repeat=4)],
            [[[a, c], [b, d]] for a, b, c, d in product(range(2), repeat=4)]]}},
}


@pytest.mark.parametrize("doc", list(BUILD_ERRORS.values()), ids=list(BUILD_ERRORS))
def test_check_maps_build_errors_to_exit_2(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli("check", str(path))
    assert result.returncode == 2
    assert "input error: invalid instance" in result.stderr
    assert "Traceback" not in result.stderr
    # the group-order and dimension caps are checked before anything large is built
    start = time.perf_counter()
    with pytest.raises(InstanceParseError):
        parse_instance(json.dumps(doc))
    assert time.perf_counter() - start < 1.0


def test_dimension_is_refused_before_the_ring_is_built(monkeypatch):
    # dim_A is read off the descriptor, so F_2^X on a million points is
    # refused without constructing the ring
    from skewsimple.rings import FunctionRing

    def unbuildable(self, *args, **kwargs):
        raise AssertionError("ring built before the dimension check")

    monkeypatch.setattr(FunctionRing, "__init__", unbuildable)
    doc = {"name": "f1e6", "ring": {"kind": "function", "points": 10**6, "q": 2},
           "group": _Z2, "action": {"kind": "trivial"}}
    with pytest.raises(InstanceParseError, match="need 2000000, cap is 256"):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize("names,message", [
    (["e", "e"], "group element names must be distinct"),
    ([[1], [2]], "group element names must be a list of strings")])
def test_table_groups_with_repeated_or_non_string_names_exit_2(tmp_path, names, message):
    # a repeated name would make a report whose witnesses read back wrong
    doc = {"name": "names", "ring": {"kind": "modular", "n": 2},
           "group": {"kind": "table", "mul": [[0, 1], [1, 0]], "names": names},
           "action": {"kind": "trivial"}}
    path = tmp_path / "names.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli("check", str(path))
    assert result.returncode == 2
    assert f"input error: invalid instance: {message}" in result.stderr


def _limited_address_space():
    # a refusal that comes too late fails here instead of filling the memory
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


class _GroupWithoutPermutations:
    """Stands in for a permutation group whose permutations, from which the
    natural action table is built, must not be read."""

    def __init__(self, group):
        self.order = group.order

    @property
    def permutations(self):
        raise AssertionError("action table built before the dimension check")


@pytest.mark.parametrize("how", [{"natural": True}, {"act": [[0, 1], [1, 0]]}],
                         ids=["natural", "act"])
def test_dynamics_dimension_is_refused_before_anything_is_built(tmp_path, monkeypatch, how):
    # points * log_p q * |G| is read off the descriptor, so a billion points
    # are refused without an action table, a ring or a transformation group
    from skewsimple import instances
    from skewsimple.rings import FunctionRing

    def unbuildable(*args, **kwargs):
        raise AssertionError("built before the dimension check")

    doc = {"name": "billion", "dynamics": {"points": 10**9, "q": 4,
                                           "group": {"kind": "symmetric", "degree": 2}, **how}}
    path = tmp_path / "billion.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli("check", str(path), preexec_fn=_limited_address_space)
    assert result.returncode == 2
    assert "dimension cap exceeded for skew ring coordinates: need 4000000000, cap is 256" \
        in result.stderr

    real_group = instances.group_from_descriptor
    monkeypatch.setattr(instances, "group_from_descriptor",
                        lambda desc, caps=None: _GroupWithoutPermutations(real_group(desc, caps)))
    monkeypatch.setattr(FunctionRing, "__init__", unbuildable)
    monkeypatch.setattr(instances, "TransformationGroup", unbuildable)
    with pytest.raises(InstanceParseError, match="need 4000000000, cap is 256"):
        parse_instance(json.dumps(doc))


def test_check_of_a_15_digit_prime_modulus_refuses_each_check_needing_its_arithmetic(
        tmp_path):
    # below 2^63 the ring is built, and every check refuses its int64
    # arithmetic on its own; outer_simplicity needs none, as the trivial
    # action is conjugation by 1, so its hypothesis fails
    path = tmp_path / "p15.json"
    path.write_text(json.dumps({"name": "p15", "ring": {"kind": "modular", "n": 10**15 + 37},
                                "group": _Z2, "action": {"kind": "trivial"}}),
                    encoding="utf-8")
    out = tmp_path / "report.json"
    result = run_cli("check", str(path), "--format", "json", "--out", str(out))
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    statuses = {name: check["status"] for name, check in report["checks"].items()}
    assert statuses.pop("outer_simplicity") == "precondition_failed"
    assert set(statuses.values()) == {"capacity_exceeded"} and len(statuses) == 6


def test_check_builds_a_ring_above_its_enumeration_cap(tmp_path):
    # |A| = 81 is above the cap of 16, yet small enough to tabulate the
    # automorphisms: the instance builds, its centre is decided from the
    # centre's basis and G-simplicity from the fixed centre's, so every
    # check is decided
    doc = json.loads((FIXTURES / "inner_conjugation_f3.json").read_text(encoding="utf-8"))
    doc.update(caps={"enumeration": 16}, witness_search=True)
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "report.json"
    result = run_cli("check", str(path), "--format", "json", "--out", str(out))
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["violations"] == []
    assert report["checks"]["center_structure"]["conclusions"]["center_coefficient_laws"] is True
    # outerness is decided from the twisted centralizer: the action is inner
    assert report["checks"]["outer_simplicity"]["status"] == "precondition_failed"
    assert all(c["status"] != "capacity_exceeded" for c in report["checks"].values())
    assert report["checks"]["necessary_conditions"]["verdicts"]["g_simple"]["value"] is True
    assert run_cli("report", str(out)).returncode == 0


def test_least_member_witnesses_are_chosen_above_the_enumeration_cap(tmp_path):
    # F_2^5 x| Z/2 with the trivial action is commutative: its centre and the
    # slot C_1 are 32 elements each, above the cap of 16, and the least
    # central element outside u_e and the least commuting a u_1 are both the
    # least nonzero payload at slot 1, read off the Howell rows
    doc = {"name": "capped_group_ring", "ring": {"kind": "function", "points": 5, "q": 2},
           "group": _Z2, "action": {"kind": "trivial"}, "caps": {"enumeration": 16},
           "witness_search": True}
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "report.json"
    result = run_cli("check", str(path), "--format", "json", "--out", str(out))
    assert result.returncode == 0, result.stderr
    checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
    assert checks.pop("outer_simplicity")["status"] == "precondition_failed"
    assert all(check["status"] == "ran" for check in checks.values())
    least = {"element": [["1", [0, 0, 0, 0, 1]]]}
    assert checks["center_containment"]["verdicts"]["center_in_identity_component"] == {
        "assertion": "center_in_identity_component", "method": "criterion", "value": False,
        "witness": least}
    assert checks["commutative_simplicity"]["verdicts"]["max_commutative"]["witness"] == least
    assert run_cli("report", str(out)).returncode == 0


def test_check_rejects_unknown_check_name():
    result = run_cli("check", str(FIXTURES / "swap2.json"), "--checks", "bogus")
    assert result.returncode == 2


def test_report_round_trip(tmp_path):
    out = tmp_path / "report.json"
    run_cli("check", str(FIXTURES / "inner_conjugation_f2.json"), "--format", "json",
            "--out", str(out))
    rendered = run_cli("report", str(out))
    assert rendered.returncode == 0
    assert "center_is_field = no" in rendered.stdout


def test_report_flags_tampered_witness(tmp_path):
    out = tmp_path / "report.json"
    run_cli("check", str(FIXTURES / "trivial_group_ring.json"), "--format", "json",
            "--out", str(out))
    doc = json.loads(out.read_text(encoding="utf-8"))
    doc["checks"]["abelian_simplicity"]["verdicts"]["simple"]["witness"] = {
        "element": [["0", 1]]}
    out.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli("report", str(out))
    assert result.returncode == 1
    assert "witness check failed" in result.stderr
    assert run_cli("report", str(out), "--no-verify").returncode == 0


def test_report_flags_a_dropped_witness(tmp_path):
    out = tmp_path / "report.json"
    run_cli("check", str(FIXTURES / "trivial_group_ring.json"), "--format", "json",
            "--out", str(out))
    doc = json.loads(out.read_text(encoding="utf-8"))
    del doc["checks"]["necessary_conditions"]["verdicts"]["sigma_injective"]["witness"]
    out.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli("report", str(out))
    assert result.returncode == 1
    assert "necessary_conditions.sigma_injective: false without a witness" in result.stderr


def test_report_flags_a_check_hidden_behind_its_status(tmp_path):
    out = tmp_path / "report.json"
    run_cli("check", str(FIXTURES / "trivial_group_ring.json"), "--format", "json",
            "--out", str(out))
    doc = json.loads(out.read_text(encoding="utf-8"))
    entry = doc["checks"]["abelian_simplicity"]
    del entry["verdicts"]["simple"]["witness"]
    entry["status"] = "not_applicable"
    out.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli("report", str(out))
    assert result.returncode == 1
    assert ("abelian_simplicity: saved status 'not_applicable', a rerun gives 'ran'"
            in result.stderr)


def _set_witness(check, verdict, witness):
    def tamper(doc):
        doc["checks"][check]["verdicts"][verdict]["witness"] = witness
    return tamper


# each must end in exit 2, not a traceback; the report is trivial_group_ring's
MALFORMED_REPORTS = {
    "element_names_unknown_group_element": (
        _set_witness("abelian_simplicity", "simple", {"element": [["x", 1]]}), ()),
    "group_element_unknown": (
        _set_witness("necessary_conditions", "sigma_injective", {"group_element": "x"}), ()),
    "element_not_a_list": (_set_witness("abelian_simplicity", "simple", {"element": 1}), ()),
    "no_instance": (lambda doc: doc.pop("instance"), ()),
    "no_instance_unverified": (lambda doc: doc.pop("instance"), ("--no-verify",)),
    "checks_a_list": (lambda doc: doc.update(checks=list(doc["checks"].values())), ()),
    "check_entry_a_string": (lambda doc: doc["checks"].update(abelian_simplicity="ran"), ()),
    "verdicts_a_list": (lambda doc: doc["checks"]["abelian_simplicity"].update(verdicts=[]), ()),
}


def _trivial_group_ring_report() -> dict:
    from skewsimple.report import canonical_json, run_checks
    spec = parse_instance((FIXTURES / "trivial_group_ring.json").read_text(encoding="utf-8"))
    return json.loads(canonical_json(run_checks(spec)))


@pytest.mark.parametrize("tamper,flags", list(MALFORMED_REPORTS.values()),
                         ids=list(MALFORMED_REPORTS))
def test_report_refuses_a_malformed_report_with_exit_2(tmp_path, tamper, flags):
    doc = _trivial_group_ring_report()
    tamper(doc)
    out = tmp_path / "report.json"
    out.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli("report", str(out), *flags)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("input error: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("tamper", [tamper for tamper, _ in MALFORMED_REPORTS.values()],
                         ids=list(MALFORMED_REPORTS))
def test_revalidate_report_refuses_a_malformed_report(tamper):
    # the library function checks the document itself, so no raw KeyError
    # or AttributeError escapes it; a witness that does not decode is a
    # DomainError, anything else is refused before the instance is rebuilt
    from skewsimple import DomainError
    from skewsimple.report import revalidate_report
    doc = _trivial_group_ring_report()
    tamper(doc)
    with pytest.raises((InstanceParseError, DomainError)):
        revalidate_report(doc)


# json raises RecursionError on the first and ValueError on the second
UNREADABLE = {
    "nested_100000_deep": ('{"name": "x", "ring": ' + "[" * 100_000 + "]" * 100_000 + "}",
                           "invalid JSON: nested too deeply"),
    "integer_of_5000_digits": ('{"name": "x", "seed": ' + "1" * 5000 + "}",
                               "invalid JSON: Exceeds the limit"),
}


@pytest.mark.parametrize("command", ["check", "report"])
@pytest.mark.parametrize("text,message", list(UNREADABLE.values()), ids=list(UNREADABLE))
def test_an_unreadable_file_exits_2(tmp_path, command, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    result = run_cli(command, str(path))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"input error: {message}")
    assert "Traceback" not in result.stderr


def test_start_up_does_not_import_jsonschema():
    # the schemas are checked in-package; jsonschema is a test dependency
    result = run_python("-c", "import sys, skewsimple.cli; "
                              "print(sorted(m for m in sys.modules if 'jsonschema' in m))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_suite_smoke_run():
    result = run_cli("suite", "--count", "3", "--seed", "5", "--skip-catalogue")
    assert result.returncode == 0
    assert "total violations: 0" in result.stdout


@pytest.mark.parametrize("cap", ["3", "4"])
def test_suite_with_a_cap_too_small_for_the_sampler_exits_2(cap):
    result = run_cli("suite", "--cap", cap, "--count", "2", "--skip-catalogue")
    assert result.returncode == 2
    assert result.stderr.startswith("input error: max_size cap exceeded")
    assert f"cap is {cap}" in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize("skip", [False, True], ids=["catalogue", "skip_catalogue"])
def test_suite_with_a_malformed_cap_variable_exits_2(monkeypatch, skip):
    monkeypatch.setenv("SKEWSIMPLE_ENUMERATION_CAP", "abc")
    result = run_cli("suite", "--count", "1", *(["--skip-catalogue"] if skip else []))
    assert result.returncode == 2
    assert result.stderr.startswith(
        "input error: SKEWSIMPLE_ENUMERATION_CAP must be an integer, got 'abc'")
    assert "Traceback" not in result.stderr


def test_a_file_that_raises_its_own_cap_exits_2(tmp_path):
    # check refuses the instance before the sweep allocates a mark array of
    # 10^30 entries; report refuses a golden report whose instance raises
    # its cap when it rebuilds the instance
    hostile = {"name": "hostile", "caps": {"enumeration": 10**30},
               "ring": {"kind": "function", "points": 8, "q": 16}, "group": _Z2,
               "action": {"kind": "trivial"}}
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(hostile), encoding="utf-8")
    report = json.loads((GOLDEN / "swap2.json").read_text(encoding="utf-8"))
    report["instance"]["caps"] = {"enumeration": (1 << 16) + 1}
    saved = tmp_path / "report.json"
    saved.write_text(json.dumps(report), encoding="utf-8")
    for args in (("check", str(path), "--checks", "abelian_simplicity"), ("report", str(saved))):
        result = run_cli(*args)
        assert result.returncode == 2, result.stderr
        assert "may only lower a cap" in result.stderr and "(at caps.enumeration)" in result.stderr
        assert "Traceback" not in result.stderr


def test_suite_refuses_a_negative_count():
    result = run_cli("suite", "--count", "-3", "--skip-catalogue")
    assert result.returncode == 2
    assert "argument --count: must not be negative, got -3" in result.stderr


# numbers that are not integers were truncated (2.5 built Z2, true built Z1)
NON_INTEGERS = {
    "orders_2.5": ({"name": "o", "ring": {"kind": "modular", "n": 2},
                    "group": {"kind": "cyclic_product", "orders": [2.5]},
                    "action": {"kind": "trivial"}}, "orders entry must be an integer, got 2.5"),
    "orders_true": ({"name": "o", "ring": {"kind": "modular", "n": 2},
                     "group": {"kind": "cyclic_product", "orders": [True, 2]},
                     "action": {"kind": "trivial"}}, "orders entry must be an integer, got true"),
    "degree_3.9": ({"name": "d", "ring": {"kind": "modular", "n": 2},
                    "group": {"kind": "symmetric", "degree": 3.9},
                    "action": {"kind": "trivial"}}, "degree must be an integer, got 3.9"),
    "n_5.5": ({"name": "n", "ring": {"kind": "modular", "n": 5.5}, "group": _Z2,
               "action": {"kind": "trivial"}}, "n must be an integer, got 5.5"),
    "q_2.9": ({"name": "q", "ring": {"kind": "function", "points": 2, "q": 2.9}, "group": _Z2,
               "action": {"kind": "trivial"}}, "q must be an integer, got 2.9"),
    "points_string": ({"name": "p", "ring": {"kind": "function", "points": "3", "q": 2},
                       "group": _Z2, "action": {"kind": "trivial"}},
                      'points must be an integer or a list of labels, got "3"'),
    # action payloads, permutations, tables and dynamics were truncated too
    "units_1.7": ({"name": "u", "ring": {"kind": "modular", "n": 3}, "group": _Z2,
                   "action": {"kind": "conjugation", "units": [1.7, 2.2]}},
                  "payload must be an integer, got 1.7"),
    "units_true": ({"name": "u", "ring": {"kind": "modular", "n": 3}, "group": _Z2,
                    "action": {"kind": "conjugation", "units": [True, 1]}},
                   "payload must be an integer, got true"),
    "perms_1.0": ({"name": "p", "ring": {"kind": "function", "points": 2, "q": 2}, "group": _Z2,
                   "action": {"kind": "permutation", "perms": [[0, 1], [1.0, 0.9]]}},
                  "perms entry must be an integer, got 1.0"),
    "table_3.5": ({"name": "t", "ring": {"kind": "function", "points": 1, "q": 4}, "group": _Z2,
                   "action": {"kind": "table",
                              "tables": [[[0], [1], [2], [3]], [[0], [1], [3.5], [2]]]}},
                  "payload entry must be an integer, got 3.5"),
    "act_1.5": ({"name": "a", "dynamics": {"points": 2, "q": 2, "group": _Z2,
                                           "act": [[0, 1], [1.5, 0.2]]}},
                "act entry must be an integer, got 1.5"),
    "mul_0.5": ({"name": "m", "ring": {"kind": "modular", "n": 2},
                 "group": {"kind": "table", "mul": [[0, 1], [1, 0.5]]},
                 "action": {"kind": "trivial"}}, "mul entry must be an integer, got 0.5"),
}


@pytest.mark.parametrize("doc,message", list(NON_INTEGERS.values()), ids=list(NON_INTEGERS))
def test_non_integer_numbers_are_refused(tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli("check", str(path))
    assert result.returncode == 2
    assert f"input error: invalid instance: {message}" in result.stderr


LARGE_DEGREE = {
    # one 10^5-cycle: a generator of order 10^5
    "permutation": ({"kind": "permutation", "degree": 10**5,
                     "generators": [list(range(1, 10**5)) + [0]]},
                    "permutation generator order: need 100000, cap is 64"),
    # 5! = 120 already exceeds the cap
    "symmetric": ({"kind": "symmetric", "degree": 10**5},
                  "S100000, of order at least 5!: need 120, cap is 64"),
    # two reflections of a 10^5-gon: generators of order 2, one orbit of
    # 10^5 points, so the dihedral group of order 2 * 10^5
    "dihedral": ({"kind": "permutation", "degree": 10**5,
                  "generators": [[-x % 10**5 for x in range(10**5)],
                                 [(1 - x) % 10**5 for x in range(10**5)]]},
                 "permutation group orbit: need 65, cap is 64"),
}


@pytest.mark.parametrize("group,message", list(LARGE_DEGREE.values()), ids=list(LARGE_DEGREE))
def test_large_degree_groups_are_refused_before_the_closure(tmp_path, monkeypatch, group,
                                                            message):
    from skewsimple import groups

    def unclosable(*args):
        raise AssertionError("permutation closure entered")

    monkeypatch.setattr(groups, "_close_permutations", unclosable)
    doc = {"name": "large_degree", "ring": {"kind": "modular", "n": 2}, "group": group,
           "action": {"kind": "trivial"}}
    with pytest.raises(InstanceParseError, match=re.escape(message)):
        parse_instance(json.dumps(doc))
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli("check", str(path))
    assert result.returncode == 2
    assert message in result.stderr
