import random
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from skewsimple import CapacityError, Caps, DomainError, GroupTable, Subgroup, stabilizer

from naive import naive_group_axioms, naive_inverses, naive_permutation_group


def test_cyclic_arithmetic():
    z3 = GroupTable.cyclic_product([3])
    assert z3.mul(1, 1) == 2
    assert z3.mul(2, 2) == 1
    for g in z3.elements():
        assert z3.mul(g, 0) == g
        assert z3.mul(g, z3.inv(g)) == 0


def test_index_range_checked():
    z3 = GroupTable.cyclic_product([3])
    with pytest.raises(DomainError):
        z3.mul(0, 3)
    with pytest.raises(DomainError):
        z3.inv(-1)


def test_s3_composition_example():
    s3 = GroupTable.symmetric(3)
    # transpositions of points {0,1} and {0,2}; their product is a 3-cycle
    perms = {p: i for i, p in enumerate(s3.permutations)}
    t01 = perms[(1, 0, 2)]
    t02 = perms[(2, 1, 0)]
    product = s3.mul(t01, t02)
    assert s3.permutations[product] in {(1, 2, 0), (2, 0, 1)}
    assert s3.permutations[product] == tuple(s3.permutations[t01][x]
                                             for x in s3.permutations[t02])


def test_abelian_classification():
    assert GroupTable.cyclic_product([2, 2]).is_abelian
    assert GroupTable.cyclic_product([6]).is_abelian
    assert not GroupTable.symmetric(3).is_abelian


def test_group_axioms_validated_on_construction():
    broken = [[0, 1], [1, 1]]  # 1*1 = 1 breaks inverses/associativity
    with pytest.raises(DomainError):
        GroupTable(broken)
    not_identity = [[1, 0], [0, 1]]
    with pytest.raises(DomainError):
        GroupTable(not_identity)


def test_group_order_cap():
    caps = Caps(group_order=10)
    with pytest.raises(CapacityError):
        GroupTable.cyclic_product([12], caps)
    with pytest.raises(CapacityError):
        GroupTable.symmetric(4, caps)


def test_conjugacy_classes_abelian_singletons():
    z6 = GroupTable.cyclic_product([6])
    assert z6.class_sizes() == [1] * 6
    for g in z6.elements():
        assert z6.conjugacy_class(g) == {g}


def test_s3_conjugacy():
    s3 = GroupTable.symmetric(3)
    assert s3.class_sizes() == [1, 3, 2]
    assert sum(s3.class_sizes()) == s3.order
    perms = {p: i for i, p in enumerate(s3.permutations)}
    t01 = perms[(1, 0, 2)]
    cls = s3.conjugacy_class(t01)
    assert {s3.permutations[g] for g in cls} == {(1, 0, 2), (2, 1, 0), (0, 2, 1)}


def test_classes_partition_group():
    for table in [GroupTable.symmetric(3), GroupTable.cyclic_product([4]),
                  GroupTable.cyclic_product([2, 2])]:
        seen = set()
        for cls in table.conjugacy_classes:
            assert not (cls & seen)
            seen |= cls
        assert seen == set(table.elements())


def test_stabilizer_examples():
    z3 = GroupTable.cyclic_product([3])
    regular = [[z3.mul(g, x) for x in range(3)] for g in z3.elements()]
    assert stabilizer(z3, regular, 0).members == {0}
    s3 = GroupTable.symmetric(3)
    natural = [list(p) for p in s3.permutations]
    stab = stabilizer(s3, natural, 2)
    assert {s3.permutations[g] for g in stab.members} == {(0, 1, 2), (1, 0, 2)}
    trivial = [[x for x in range(3)] for _ in z3.elements()]
    assert stabilizer(z3, trivial, 1).members == set(z3.elements())


def test_stabilizer_rejects_non_bijective_rows():
    z2 = GroupTable.cyclic_product([2])
    with pytest.raises(DomainError):
        stabilizer(z2, [[0, 1], [0, 0]], 0)


def test_stabilizer_output_is_subgroup():
    s3 = GroupTable.symmetric(3)
    natural = [list(p) for p in s3.permutations]
    for x in range(3):
        sub = stabilizer(s3, natural, x)
        assert isinstance(sub, Subgroup)  # Subgroup validates closure on init


def test_subgroup_invariants_enforced():
    z4 = GroupTable.cyclic_product([4])
    with pytest.raises(DomainError):
        Subgroup(z4, frozenset({1, 3}))  # missing identity
    with pytest.raises(DomainError):
        Subgroup(z4, frozenset({0, 1}))  # not closed
    assert Subgroup(z4, frozenset({0, 2})).order == 2


def test_cyclic_subgroup_and_normality():
    s3 = GroupTable.symmetric(3)
    perms = {p: i for i, p in enumerate(s3.permutations)}
    rotation = perms[(1, 2, 0)]
    sub = s3.cyclic_subgroup(rotation)
    assert sub.order == 3
    assert sub.is_normal()
    swap = perms[(1, 0, 2)]
    assert not s3.cyclic_subgroup(swap).is_normal()


@pytest.mark.parametrize("names,message", [
    (["e", "e"], "group element names must be distinct"),
    ([[1], [2]], "group element names must be a list of strings"),
    (["e", 1], "group element names must be a list of strings"),
    ("ea", "group element names must be a list of strings"),
    (["e"], "names length does not match group order"),
])
def test_element_names_are_distinct_strings(names, message):
    # a report names group elements and reads each name back to one index
    with pytest.raises(DomainError, match=message):
        GroupTable([[0, 1], [1, 0]], names)
    assert GroupTable([[0, 1], [1, 0]], ["e", "a"]).names == ("e", "a")


def _verdict(mul):
    try:
        table = GroupTable(mul)
    except DomainError as exc:
        return str(exc)
    assert table.inv_table == naive_inverses(mul)
    return None


def _broken_tables():
    """Group tables broken each way the axioms can fail: rows of the wrong
    length, entries out of range, a displaced identity, one entry changed
    (associativity, mostly), and monoids without inverses."""
    rng = random.Random(19)
    bases = [[list(row) for row in group.mul_table] for group in (
        GroupTable.cyclic_product([6]), GroupTable.cyclic_product([2, 2]),
        GroupTable.symmetric(3), GroupTable.symmetric(4), GroupTable.cyclic_product([2, 4]))]
    for mul in bases:
        n = len(mul)
        yield mul
        for _ in range(60):
            broken = [row[:] for row in mul]
            a, b = rng.randrange(n), rng.randrange(n)
            broken[a][b] = rng.choice([x for x in range(n) if x != mul[a][b]])
            yield broken
        for value in (n, -1):
            broken = [row[:] for row in mul]
            broken[rng.randrange(1, n)][rng.randrange(n)] = value
            yield broken
        yield mul[:1] + [row[:-1] if i == n // 2 else row for i, row in enumerate(mul[1:], 1)]
        yield [row[1:] + row[:1] for row in mul]
    # {e, z} with z z = z, and the two-sided zero monoid on three elements
    yield [[0, 1], [1, 1]]
    yield [[0, 1, 2], [1, 2, 2], [2, 2, 2]]


def test_group_axioms_report_the_first_failure_as_the_loops_do():
    kinds = set()
    for mul in _broken_tables():
        expected = naive_group_axioms(mul)
        assert _verdict(mul) == expected, mul
        kinds.add(expected and re.sub(r"-?\d+", "#", expected))
    assert kinds == {None, "mul table row # has length #, expected #",
                     "mul table entry # out of range #..#", "index # is not a two-sided identity",
                     "multiplication not associative at (#,#,#)", "element # has no inverse"}


def test_associativity_is_checked_in_blocks(monkeypatch):
    from skewsimple import groups
    monkeypatch.setattr(groups, "_AXIOM_BLOCK", 1)   # one a per step
    for mul in _broken_tables():
        assert _verdict(mul) == naive_group_axioms(mul)


def test_identity_is_index_zero_everywhere():
    for table in [GroupTable.cyclic_product([5]), GroupTable.symmetric(3),
                  GroupTable.cyclic_product([2, 3])]:
        for g in table.elements():
            assert table.mul(0, g) == g
            assert table.mul(g, 0) == g


@pytest.mark.parametrize("perm,message", [
    (list(range(1, 10**5)) + [1], "a generator sends two points to 1"),
    (list(range(1, 10**5)) + [10**5], "generator entry 100000 is not a point"),
    (list(range(10**5 - 1)), "a generator of degree 100000 has 99999 entries"),
])
def test_non_permutations_are_named_briefly(perm, message):
    # the refusal names a point, not the (here 10^5-entry) generator
    with pytest.raises(DomainError, match=message) as info:
        GroupTable.from_permutations(10**5, [perm])
    assert len(str(info.value)) < 100


def _assert_matches_naive(degree, gens):
    group = GroupTable.from_permutations(degree, gens)
    ordered, mul, names = naive_permutation_group(degree, [tuple(g) for g in gens])
    assert group.permutations == ordered
    assert [list(row) for row in group.mul_table] == mul
    assert list(group.names) == names


@st.composite
def permutation_generators(draw):
    degree = draw(st.integers(1, 4))   # within the group-order cap
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    pad = draw(st.integers(0, 5))   # fixed points after the moved ones
    return degree + pad, [list(g) + list(range(degree, degree + pad)) for g in gens]


@settings(max_examples=60, deadline=None)
@given(permutation_generators())
@example((8, [[1, 0, 3, 2, 5, 4, 7, 6]]))   # more moved points than elements
@example((7, [[1, 2, 0, 4, 3, 6, 5]]))
def test_permutation_groups_match_pointwise_composition(problem):
    degree, gens = problem
    _assert_matches_naive(degree, gens)


def test_symmetric_groups_match_pointwise_composition():
    for degree in range(1, 5):
        _assert_matches_naive(degree, [list(p) for p in GroupTable.symmetric(degree).permutations])


def test_high_degree_cycle_is_composed_on_arrays():
    # a 64-cycle padded to degree 2*10^4: composing tuples point by point
    # took about 7 s for the table alone
    degree = 2 * 10**4
    gen = list(range(1, 64)) + [0] + list(range(64, degree))
    start = time.perf_counter()
    group = GroupTable.from_permutations(degree, [gen])
    assert time.perf_counter() - start < 3.0
    assert group.order == 64
    assert group.names[-1] == "(0 63 62 " + " ".join(str(x) for x in range(61, 0, -1)) + ")"
    assert group.permutations[1][:3] == (1, 2, 3) and len(group.permutations[1]) == degree
