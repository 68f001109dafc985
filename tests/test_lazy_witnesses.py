"""The G-simplicity verdict and the two field tests decide first; their
witnesses are built the first time something reads them.

The dynamics checks read only decisions, so on actions that are not
G-simple, with centres that are not fields, they must finish with the
sweep of A and the minimal polynomial refused. ``necessary_conditions``
reads every witness, and a lazily built witness must be the one the eager
code built: the first proper invariant ideal under the enumeration cap, the
fixed centre's obstruction above it, and the dense field test's obstruction
for both centres, whichever is read first.
"""

import json

import numpy as np
import pytest

from skewsimple import Caps, actions, closure, rings
from skewsimple.criteria import field_obstruction, necessary_conditions
from skewsimple.dynamics import (TransformationGroup, abelian_freeness_check, catalogue,
                                 dynamics_simplicity_check, faithful_minimal_check)
from skewsimple.rings import engine_ideal, first_proper_ideal
from skewsimple.skew import left_multiplication

from conftest import stack_reference_contexts
from naive import naive_dense_field_obstruction, naive_ring_left_multiplication

# the cheap catalogue actions that are not G-simple, with centres that are
# not fields, and the witnesses ``necessary_conditions`` gave for them when
# every witness was built eagerly
EAGER_WITNESSES = {
    "two_2cycles": {"center_is_field": {"element": [["0", [1, 1, 0, 0]]]},
                    "g_simple": {"coefficient": [0, 0, 0, 1]},
                    "sigma_injective": None, "simple": None},
    "swap_plus_fixed": {"center_is_field": {"element": [["0", [0, 0, 1, 0]],
                                                        ["1", [0, 0, 1, 0]]]},
                        "g_simple": {"coefficient": [0, 0, 0, 1]},
                        "sigma_injective": None, "simple": None},
    "trivial_Z2": {"center_is_field": {"element": [["0", [1, 0]], ["1", [1, 0]]]},
                   "g_simple": {"coefficient": [0, 1]},
                   "sigma_injective": {"group_element": "1"}, "simple": None},
}


def _fresh(name: str) -> TransformationGroup:
    T = next(T for T in catalogue() if T.name == name)
    return TransformationGroup(T.npoints, T.group, T.act, T.q, name, T.caps)


def test_dynamics_checks_build_no_witness(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a witness was built")

    with monkeypatch.context() as patch:
        for owner in (rings, actions):
            patch.setattr(owner, "first_proper_ideal", refuse)
        patch.setattr(closure, "_minimal_polynomial", refuse)
        for name in EAGER_WITNESSES:
            T = _fresh(name)
            assert not faithful_minimal_check(T).violations
            assert not dynamics_simplicity_check(T).violations
            assert not abelian_freeness_check(T).violations
            ctx = T.context
            assert not ctx.g_simplicity.value and not ctx.center_is_field
    for name, expected in EAGER_WITNESSES.items():
        verdicts = necessary_conditions(_fresh(name).context).as_json()["verdicts"]
        assert {k: v.get("witness") for k, v in verdicts.items()} == expected, name


def _eager(ctx, under_cap: bool) -> dict:
    """The witnesses as the eager code built them, from the references."""
    ring, action = ctx.ring, ctx.action
    one = np.array(ctx.vec_of(ctx.one), dtype=np.int64)
    centre = naive_dense_field_obstruction(ctx.char, ctx.center_basis.rows, one,
                                           lambda z: left_multiplication(ctx, z))
    fixed = naive_dense_field_obstruction(
        ring.char, action.fixed_center[0].rows,
        np.array(ring.to_vec(ring.one), dtype=np.int64), naive_ring_left_multiplication(ring))
    ideal = None
    if fixed is not None and under_cap:
        ideal = first_proper_ideal(ring, action.ideal_engine, "reference sweep")
    elif fixed is not None:
        ideal = engine_ideal(ring, action.ideal_engine, [ring.from_vec(fixed.tolist())])
    return {"centre": None if centre is None else tuple(centre.tolist()),
            "fixed": None if fixed is None else fixed.tolist(),
            "witness": None if ideal is None else (ideal.generators, ideal.basis.key())}


def _witness(g_simplicity) -> tuple | None:
    ideal = g_simplicity.witness_ideal
    if ideal is None:
        assert g_simplicity.witness is None
        return None
    assert g_simplicity.witness.payload == ideal.generators[0]
    return ideal.generators, ideal.basis.key()


def _lazy(ctx, first: str, under_cap: bool) -> dict:
    """The witnesses of a fresh context, read before any verdict or after
    every verdict (and, under the cap, the oracle)."""
    def verdicts():
        oracle = ctx.simplicity.value if under_cap else None
        return ctx.g_simplicity.value, ctx.center_is_field, oracle

    before = verdicts() if first == "verdicts" else None
    test = ctx.action.fixed_center[1]
    read = {"centre": ctx.center_obstruction, "fixed": test.obstruction,
            "witness": _witness(ctx.g_simplicity)}
    after = verdicts()
    assert before in (None, after)
    assert ctx.center_is_field == (read["centre"] is None)
    assert test.is_field == (read["fixed"] is None) == ctx.g_simplicity.value
    return {"centre": None if read["centre"] is None else ctx.vec_of(read["centre"]),
            "fixed": None if read["fixed"] is None else read["fixed"].tolist(),
            "witness": read["witness"], "verdicts": after}


@pytest.mark.parametrize("cap", [None, 1], ids=["under_cap", "above_cap"])
def test_lazy_witnesses_equal_the_eager_ones(cap):
    # the catalogue, the fixtures and InstanceSampler(0, 4096).draw_many(200);
    # a ring cap of 1 puts every A above the cap, where the witness is the
    # fixed centre's obstruction
    readers = {order: stack_reference_contexts() for order in ("witnesses", "verdicts")}
    assert len(readers["witnesses"]) == 225
    not_g_simple = 0
    for pair in zip(readers["witnesses"], readers["verdicts"]):
        if cap is not None:
            for ctx in pair:
                ctx.ring.caps = Caps(enumeration=cap)
        early, late = (_lazy(ctx, order, cap is None)
                       for ctx, order in zip(pair, ("witnesses", "verdicts")))
        assert early == late, pair[0]
        eager = _eager(pair[0], cap is None)
        assert {k: early[k] for k in eager} == eager, pair[0]
        not_g_simple += early["witness"] is not None
    assert not_g_simple == 66


def test_field_obstruction_decides_before_it_builds(monkeypatch):
    # the centre of two_2cycles is split only by z - c*1: the decision
    # needs no minimal polynomial, the obstruction does, and is built once
    calls = []
    original = closure._minimal_polynomial
    monkeypatch.setattr(closure, "_minimal_polynomial",
                        lambda *args: calls.append(1) or original(*args))
    ctx = _fresh("two_2cycles").context
    test = field_obstruction(ctx)
    assert not test.is_field and not calls
    z = test.obstruction
    assert test.obstruction is z and calls == [1]
    assert json.dumps(ctx.element_of_vec(z).serialize()) == json.dumps(
        EAGER_WITNESSES["two_2cycles"]["center_is_field"]["element"])
