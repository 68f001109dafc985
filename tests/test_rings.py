import json
import random
import re
import time
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from skewsimple import (CapacityError, Caps, DomainError, FunctionRing, GroupTable,
                        InstanceParseError, MatrixRing, ModularRing, center,
                        enumerate_elements, ideal_closure, is_G_simple, trivial_action,
                        try_invert)
from skewsimple.instances import parse_instance
from skewsimple.report import canonical_json, revalidate_report, run_checks
from skewsimple.rings import PRIME_TEST_BOUND, _is_prime, descriptor_dim, ring_from_descriptor

from naive import is_field, naive_add, naive_neg, naive_rank, naive_unrank, naive_zero

RINGS_SMALL = [ModularRing(6), MatrixRing(2, 2), FunctionRing(3, 2), FunctionRing(2, 4)]


def test_modular_arithmetic_examples():
    z6 = ModularRing(6)
    assert z6.add(4, 5) == 3
    one = z6.one_element
    for a in enumerate_elements(z6):
        assert one * a == a
        assert a * one == a


def test_matrix_square_example():
    m = MatrixRing(2, 3)
    M = (0, 1, 2, 0)
    assert m.mul(M, M) == (2, 0, 0, 2)  # the negated identity


def test_mixed_ring_operands_rejected():
    a = ModularRing(6).element(2)
    b = ModularRing(5).element(2)
    with pytest.raises(DomainError):
        a + b
    with pytest.raises(DomainError):
        a * b


def test_enumeration_order_and_counts():
    assert [e.payload for e in enumerate_elements(ModularRing(3))] == [0, 1, 2]
    f22 = enumerate_elements(FunctionRing(2, 2))
    assert [e.payload for e in f22] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(enumerate_elements(MatrixRing(2, 2))) == 16
    assert MatrixRing(2, 3).size == 81
    assert FunctionRing(3, 4).size == 64


def test_enumeration_cap():
    small = replace(Caps.from_env(), enumeration=10)
    ring = ModularRing(11, small)
    with pytest.raises(CapacityError) as err:
        enumerate_elements(ring)
    assert "enumeration" in str(err.value)
    assert "10" in str(err.value)


def test_try_invert_examples():
    z6 = ModularRing(6)
    assert try_invert(z6.element(5)).payload == 5
    assert try_invert(z6.element(2)) is None
    m = MatrixRing(2, 3)
    assert try_invert(m.element((0, 1, 2, 0))).payload == (0, 2, 1, 0)


@pytest.mark.parametrize("ring", RINGS_SMALL)
def test_invert_is_an_involution(ring):
    for a in enumerate_elements(ring):
        b = try_invert(a)
        if b is not None:
            assert try_invert(b) == a


def test_ideal_closure_examples():
    z6 = ModularRing(6)
    assert ideal_closure(z6, [0]).elements == {0}
    assert ideal_closure(z6, [2]).elements == {0, 2, 4}
    m = MatrixRing(2, 2)
    e11 = (1, 0, 0, 0)
    assert ideal_closure(m, [e11]).size == 16


def test_ideal_closure_monotone_and_idempotent():
    z12 = ModularRing(12)
    small = ideal_closure(z12, [4])
    bigger = ideal_closure(z12, [4, 6])
    assert small.elements <= bigger.elements
    again = ideal_closure(z12, list(small.elements))
    assert again.elements == small.elements


def test_ideal_closure_is_closed():
    m = MatrixRing(2, 2)
    ideal = ideal_closure(m, [(1, 0, 0, 0)])
    for a in ideal.elements:
        assert m.neg(a) in ideal.elements
        for b in ideal.elements:
            assert m.add(a, b) in ideal.elements
        for c in m.payloads():
            assert m.mul(a, c) in ideal.elements
            assert m.mul(c, a) in ideal.elements


def test_center_examples():
    z6 = ModularRing(6)
    assert len(center(z6)) == 6
    m = MatrixRing(2, 3)
    scalars = {(c, 0, 0, c) for c in range(3)}
    assert {e.payload for e in center(m)} == scalars
    f = FunctionRing(2, 2)
    assert len(center(f)) == 4


@pytest.mark.parametrize("ring", RINGS_SMALL)
def test_center_commutes_with_everything(ring):
    central = center(ring)
    for z in central:
        for a in enumerate_elements(ring):
            assert z * a == a * z


def test_is_field_examples():
    z5 = ModularRing(5)
    assert is_field(enumerate_elements(z5), zero=z5.zero_element, one=z5.one_element)
    z6 = ModularRing(6)
    assert not is_field(enumerate_elements(z6), zero=z6.zero_element, one=z6.one_element)


def test_is_field_rejects_noncommutative():
    m = MatrixRing(2, 2)
    with pytest.raises(DomainError):
        is_field(enumerate_elements(m), zero=m.zero_element, one=m.one_element)


def test_is_field_rejects_unclosed():
    z5 = ModularRing(5)
    with pytest.raises(DomainError):
        is_field([z5.element(0), z5.element(1), z5.element(2)],
                 zero=z5.zero_element, one=z5.one_element)


def _trivially_acted(ring):
    # the trivial group's G-simplicity is the simplicity of the ring
    return is_G_simple(trivial_action(GroupTable.cyclic_product([1]), ring))


@pytest.mark.parametrize("k,p", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_matrix_rings_over_fields_are_simple(k, p):
    verdict = _trivially_acted(MatrixRing(k, p))
    assert verdict.value


def test_simplicity_witnesses():
    verdict = _trivially_acted(ModularRing(6))
    assert not verdict.value
    assert verdict.witness.payload == 2
    assert verdict.witness_ideal.elements == {0, 2, 4}
    verdict = _trivially_acted(FunctionRing(2, 2))
    assert not verdict.value
    ideal = verdict.witness_ideal
    assert not ideal.is_full and not ideal.is_zero
    assert verdict.witness.payload in ideal.elements


# ring axioms: exhaustive on the catalogue rings, randomized above -----------

@pytest.mark.parametrize("ring", [ModularRing(6), MatrixRing(2, 2), FunctionRing(2, 3)])
def test_axioms_exhaustive_small(ring):
    payloads = list(ring.payloads())
    for a in payloads:
        assert ring.mul(ring.one, a) == a
        assert ring.mul(a, ring.one) == a
        for b in payloads:
            for c in payloads:
                assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
                assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
                assert ring.mul(ring.add(a, b), c) == ring.add(ring.mul(a, c), ring.mul(b, c))


@pytest.mark.parametrize("ring", [MatrixRing(2, 3), FunctionRing(4, 4), ModularRing(256)])
def test_axioms_random_triples_large(ring):
    rng = random.Random(11)
    for _ in range(10_000):
        a = ring.unrank(rng.randrange(ring.size))
        b = ring.unrank(rng.randrange(ring.size))
        c = ring.unrank(rng.randrange(ring.size))
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))


@given(st.integers(2, 40), st.data())
def test_modular_ring_axioms_property(n, data):
    ring = ModularRing(n)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
    assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
    assert ring.add(a, b) == ring.add(b, a)


@given(st.sampled_from([2, 3, 4]), st.data())
def test_function_ring_units_are_nowhere_zero(q, data):
    ring = FunctionRing(3, q)
    a = ring.unrank(data.draw(st.integers(0, ring.size - 1)))
    inv = ring.try_invert_payload(a)
    if all(x != 0 for x in a):
        assert inv is not None and ring.mul(a, inv) == ring.one
    else:
        assert inv is None


def test_vec_roundtrip():
    for ring in RINGS_SMALL:
        for a in ring.payloads():
            assert ring.from_vec(ring.to_vec(a)) == a
            assert ring.unrank(ring.rank(a)) == a


# the additive structure and order derive from each family's coordinates;
# compared with the family-by-family references, also where ranks pass int64
DERIVED_RINGS = [ModularRing(7), ModularRing(12), ModularRing(2**61 - 1), MatrixRing(1, 5),
                 MatrixRing(2, 2), MatrixRing(2, 3), MatrixRing(5, 7),
                 *(FunctionRing(3, q) for q in (2, 3, 4, 8, 9)), FunctionRing(30, 8)]


@given(st.sampled_from(DERIVED_RINGS), st.data())
def test_derived_additive_structure_and_order_match_the_family_references(ring, data):
    i, j = (data.draw(st.integers(0, ring.size - 1)) for _ in range(2))
    a, b = naive_unrank(ring, i), naive_unrank(ring, j)
    assert ring.unrank(i) == a
    assert ring.rank(a) == naive_rank(ring, a) == i
    assert ring.add(a, b) == naive_add(ring, a, b)
    assert ring.neg(a) == naive_neg(ring, a)
    assert ring.sub(a, b) == naive_add(ring, a, naive_neg(ring, b))
    assert ring.zero == naive_zero(ring)


@pytest.mark.parametrize("ring", [ModularRing(6), MatrixRing(2, 2), FunctionRing(2, 4),
                                  FunctionRing(2, 9), FunctionRing(1, 8)], ids=repr)
def test_payloads_and_their_vectors_follow_the_reference_order(ring):
    payloads = list(ring.payloads())
    assert payloads == [naive_unrank(ring, i) for i in range(ring.size)]
    assert ring.payload_vectors.tolist() == [list(ring.to_vec(a)) for a in payloads]


SMALL_OF_EACH_FAMILY = [ModularRing(6), ModularRing(5), MatrixRing(1, 3), MatrixRing(2, 2),
                        FunctionRing(2, 4), FunctionRing(["a", "b", "c"], 3)]


@pytest.mark.parametrize("ring", SMALL_OF_EACH_FAMILY, ids=repr)
def test_payload_json_round_trips(ring):
    for a in ring.payloads():
        raw = ring.payload_json(a)
        assert json.loads(json.dumps(raw)) == raw
        assert ring.payload_from_json(raw) == a


def test_payload_json_shapes():
    assert ModularRing(6).payload_json(5) == 5
    assert MatrixRing(2, 3).payload_json((0, 1, 2, 0)) == [[0, 1], [2, 0]]
    assert FunctionRing(3, 4).payload_json((3, 0, 1)) == [3, 0, 1]
    # a matrix may also be written flat, row-major
    assert MatrixRing(2, 3).payload_from_json([0, 1, 2, 0]) == (0, 1, 2, 0)


_Z2 = {"kind": "cyclic_product", "orders": [2]}
_F2X2 = {"kind": "function", "points": 2, "q": 2}
# ring descriptor, one JSON payload, one unit of that ring, and the refusal
MALFORMED_PAYLOADS = {
    "modular_float": ({"kind": "modular", "n": 3}, 1.5, 1, "payload must be an integer, got 1.5"),
    "modular_list": ({"kind": "modular", "n": 3}, [1], 1, "payload must be an integer, got [1]"),
    "matrix_number": ({"kind": "matrix", "size": 2, "prime": 2}, 1, [[1, 0], [0, 1]],
                      "a payload of MatrixRing(2, 2) must be a list"),
    "matrix_short": ({"kind": "matrix", "size": 2, "prime": 2}, [[1, 0], [0]], [[1, 0], [0, 1]],
                     "matrix payload needs 4 entries, got 3"),
    "matrix_float_entry": ({"kind": "matrix", "size": 2, "prime": 2}, [[1, 0], [0, 0.5]],
                           [[1, 0], [0, 1]], "payload entry must be an integer, got 0.5"),
    "function_number": (_F2X2, 1, [1, 1],
                        "a payload of FunctionRing(('x0', 'x1'), 2) must be a list"),
    "function_long": (_F2X2, [1, 1, 1], [1, 1], "function payload needs 2 values, got 3"),
    "function_out_of_range": (_F2X2, [1, 2], [1, 1], "function payload values must lie in 0..1"),
    "function_string_entry": (_F2X2, [1, "1"], [1, 1],
                              'payload entry must be an integer, got "1"'),
}


@pytest.mark.parametrize("ring,raw,unit,message", list(MALFORMED_PAYLOADS.values()),
                         ids=list(MALFORMED_PAYLOADS))
def test_malformed_payloads_are_refused_in_actions_and_reports(ring, raw, unit, message):
    doc = {"name": "bad", "ring": ring, "group": _Z2,
           "action": {"kind": "conjugation", "units": [raw, unit]}}
    with pytest.raises(InstanceParseError, match=re.escape(f"invalid instance: {message}")):
        parse_instance(json.dumps(doc))
    doc["action"]["units"] = [unit, unit]
    report = json.loads(canonical_json(run_checks(parse_instance(json.dumps(doc)))))
    report["checks"]["necessary_conditions"]["verdicts"]["g_simple"].update(
        value=False, witness={"coefficient": raw})
    with pytest.raises(DomainError, match=re.escape(message)):
        revalidate_report(report)


def _trial_division(n, primes):
    return n >= 2 and all(n % p for p in primes if p * p <= n)


def test_is_prime_matches_trial_division_below_1e5():
    small = [p for p in range(2, 317) if all(p % d for d in range(2, p))]
    for n in range(100000):
        assert _is_prime(n) is _trial_division(n, small), n


def test_is_prime_rejects_pseudoprimes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
                  5394826801, 232250619601, 9746347772161]
    # 2047 fools base 2; 3215031751 fools 2, 3, 5 and 7; 318665857834031151167461
    # fools all of the first twelve prime bases
    for n in carmichael + [2047, 3215031751, 318665857834031151167461]:
        assert not _is_prime(n), n
    for p in (2147483647, 1000000007, 10**15 + 37, 2**61 - 1):
        assert _is_prime(p), p


def test_is_prime_is_fast_and_bounded():
    start = time.perf_counter()
    assert _is_prime(10**15 + 37)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(CapacityError):
        _is_prime(PRIME_TEST_BOUND)


def test_additive_generators_are_built_once_per_ring():
    for ring in RINGS_SMALL:
        gens = ring.additive_generators()
        assert isinstance(gens, tuple) and len(gens) == ring.dim
        assert ring.additive_generators() is gens
        assert [ring.to_vec(b) for b in gens] == [
            tuple(int(i == j) for j in range(ring.dim)) for i in range(ring.dim)]


@pytest.mark.parametrize("desc", [
    {"kind": "modular", "n": 12}, {"kind": "matrix", "size": 3, "prime": 2},
    {"kind": "function", "points": 5, "q": 2}, {"kind": "function", "points": 3, "q": 9},
    {"kind": "function", "points": ["a", "b"], "q": 8}])
def test_descriptor_dim_matches_the_built_ring(desc):
    assert descriptor_dim(desc) == ring_from_descriptor(desc).dim


@pytest.mark.parametrize("make", [lambda: ModularRing(2**63),
                                  lambda: MatrixRing(2, 2**63 + 1)])
def test_moduli_int64_cannot_hold_are_refused(make):
    with pytest.raises(CapacityError) as err:
        make()
    assert err.value.cap_name == "modulus"
    ModularRing(2**63 - 1)
