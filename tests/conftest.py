import pytest
from hypothesis import HealthCheck, settings

from skewsimple import FunctionRing, GroupTable, MatrixRing, ModularRing
from skewsimple.actions import ActionMap, RingAutomorphism, trivial_action
from skewsimple.skew import SkewContext

settings.register_profile(
    "suite", max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow], derandomize=True)
settings.load_profile("suite")


def swap_context(caps=None):
    """F2^2 x| Z/2 exchanging the two points (isomorphic to 2x2 matrices)."""
    ring = FunctionRing(2, 2, caps)
    grp = GroupTable.cyclic_product([2], caps)
    action = ActionMap(grp, ring, [RingAutomorphism.identity(ring),
                                   RingAutomorphism.coordinate_permutation(ring, [1, 0])])
    return SkewContext(ring, grp, action, caps)


def conj_f3_context(caps=None):
    """M2(F3) x| Z/2, conjugation by [[0,1],[-1,0]] (order-4 unit, square -I)."""
    ring = MatrixRing(2, 3, caps)
    grp = GroupTable.cyclic_product([2], caps)
    action = ActionMap(grp, ring, [RingAutomorphism.identity(ring),
                                   RingAutomorphism.conjugation(ring, (0, 1, 2, 0))])
    return SkewContext(ring, grp, action, caps)


def conj_f2_context(caps=None):
    """M2(F2) x| Z/2, conjugation by the coordinate swap matrix."""
    ring = MatrixRing(2, 2, caps)
    grp = GroupTable.cyclic_product([2], caps)
    action = ActionMap(grp, ring, [RingAutomorphism.identity(ring),
                                   RingAutomorphism.conjugation(ring, (0, 1, 1, 0))])
    return SkewContext(ring, grp, action, caps)


def natural_s3_context(q=2, caps=None):
    """F_q^3 x| S3, coordinates permuted naturally."""
    grp = GroupTable.symmetric(3, caps)
    ring = FunctionRing(3, q, caps)
    autos = [RingAutomorphism.coordinate_permutation(ring, grp.permutations[grp.inv(g)])
             for g in grp.elements()]
    return SkewContext(ring, grp, ActionMap(grp, ring, autos), caps)


def two_two_cycles_context(caps=None):
    """F2^4 x| Z/2 swapping points 0<->1 and 2<->3 (two orbits)."""
    ring = FunctionRing(4, 2, caps)
    grp = GroupTable.cyclic_product([2], caps)
    action = ActionMap(grp, ring, [RingAutomorphism.identity(ring),
                                   RingAutomorphism.coordinate_permutation(ring, [1, 0, 3, 2])])
    return SkewContext(ring, grp, action, caps)


def trivial_f2_z2_context(caps=None):
    """F2 x| Z/2 with the trivial action (the modular group ring)."""
    ring = ModularRing(2, caps)
    grp = GroupTable.cyclic_product([2], caps)
    return SkewContext(ring, grp, trivial_action(grp, ring), caps)


def rotation_z3_context(q=2, caps=None):
    """F_q^3 x| Z/3 rotating the three points."""
    ring = FunctionRing(3, q, caps)
    grp = GroupTable.cyclic_product([3], caps)
    autos = [RingAutomorphism.coordinate_permutation(ring, tuple((x - g) % 3 for x in range(3)))
             for g in range(3)]
    return SkewContext(ring, grp, ActionMap(grp, ring, autos), caps)


def fixture_contexts():
    """The contexts of the five instance fixtures, in file name order."""
    from pathlib import Path

    from skewsimple.instances import parse_instance
    for path in sorted((Path(__file__).parent / "fixtures").glob("*.json")):
        built = parse_instance(path.read_text(encoding="utf-8")).build()
        yield built if isinstance(built, SkewContext) else built.context


def stack_reference_contexts():
    """The catalogue, fixture and sampled contexts the block-monomial stack
    and the centre are checked on against their dense references: 225."""
    from skewsimple.criteria import InstanceSampler
    from skewsimple.dynamics import catalogue
    contexts = [T.context for T in catalogue()]
    contexts += list(fixture_contexts())
    return contexts + [inst.ctx for inst in InstanceSampler(0, 4096).draw_many(200)]


@pytest.fixture(scope="session")
def dynamics_catalogue():
    from skewsimple.dynamics import catalogue
    return catalogue()


@pytest.fixture(scope="session")
def swap_ctx():
    return swap_context()


@pytest.fixture(scope="session")
def conj_f3_ctx():
    return conj_f3_context()


@pytest.fixture(scope="session")
def conj_f2_ctx():
    return conj_f2_context()


@pytest.fixture(scope="session")
def s3_ctx():
    return natural_s3_context()
