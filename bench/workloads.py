"""The three workloads: how their instance descriptions are generated from a
seed, how each description is run through the program, and how the outputs
are checked by the independent verifier.

An *item* is one instance description plus the operations it is expected to
yield. A *round* is the full list of items of a workload in seeded order;
every run repeats whole rounds, so each run attempts the same operations and
the share of failed operations never depends on the seed or the run length.

Seeds only relabel: points of function rings are renamed, cyclic and
symmetric groups are twisted by an automorphism, conjugating units are
conjugated by a random unit, table groups get their non-identity elements
renumbered, and the order of the round is shuffled. Every relabelled instance
is isomorphic to its template, so verdicts, centre sizes and the amount of
algebra per round stay put while sweep order, witness choice and the bytes of
every description change with the seed.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

from verifier import Algebra, Group, transitive_faithful_free

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
MAX_SIZE = 4096
MENU_SEED = 2011       # fixes the sweep templates; --seed only relabels them
SWEEP_TEMPLATES = 20   # instances per sweep in one round
# A catalogue round is one pass of about 30 s, so its median instance would
# otherwise rest on one timing of one or two ~30-ms instances. The thirteen
# instances outside LONG_CATALOGUE (together about 0.3 s) are therefore run
# CHEAP_REPEATS times in a row in every round; the seven long ones (each
# about 1 s or more) once.
LONG_CATALOGUE = frozenset({"regular_Z4", "regular_Z2xZ2", "regular_Z5", "regular_Z6",
                            "regular_S3", "natural_S4", "rotation_Z3_q3"})
CHEAP_REPEATS = 10

ALGEBRA_CHECKS = ("necessary_conditions", "abelian_simplicity", "commutative_simplicity",
                  "outer_simplicity", "center_containment", "centralizer_kernel",
                  "center_structure")
DYNAMICS_CHECKS = ALGEBRA_CHECKS + ("faithful_minimal", "dynamics_simplicity",
                                    "abelian_freeness")

# sweep name -> check function of skewsimple.criteria, as `skewsimple suite` pairs them
SWEEPS = {
    "necessary_conditions": "necessary_conditions",
    "abelian_simplicity": "abelian_simplicity_check",
    "abelian_commutative_simplicity": "abelian_simplicity_check",
    "commutative_simplicity": "commutative_simplicity_check",
    "outer_simplicity": "outer_simplicity_check",
    "centralizer_kernel": "centralizer_kernel_check",
    "center_containment": "center_containment_check",
    "center_structure": "center_structure_check",
}


def cyclic(*orders: int) -> dict:
    return {"kind": "cyclic_product", "orders": list(orders)}


def symmetric(degree: int) -> dict:
    return {"kind": "symmetric", "degree": degree}


# structural actions, listed per group element --------------------------------

def rotation(group: Group, npts: int, steps) -> list[list[int]]:
    """Each cyclic factor rotates the points by its step."""
    out = []
    for tup in group.tuples:
        shift = sum(j * k for j, k in zip(tup, steps)) % npts
        out.append([(x - shift) % npts for x in range(npts)])
    return out


def natural(group: Group, npts: int) -> list[list[int]]:
    """A permutation group acting on points by sigma_g(f) = f o g^-1."""
    return [[group.perms[group.inv[g]][x] if x < len(group.perms[0]) else x
             for x in range(npts)] for g in range(group.order)]


def sign_swap(group: Group) -> list[list[int]]:
    """S_n on two points through the sign character."""
    def odd(p):
        return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]) % 2
    return [[1, 0] if odd(p) else [0, 1] for p in group.perms]


def _unit_powers(group: Group, ring_p: int, units) -> list[list[list[int]]]:
    """g = (t_1..t_k) -> prod u_j^t_j for 2x2 units u_j over F_p."""
    out = []
    for tup in group.tuples:
        v = np.eye(2, dtype=np.int64)
        for t, u in zip(tup, units):
            for _ in range(t):
                v = (v @ np.array(u, dtype=np.int64)) % ring_p
        out.append(v.tolist())
    return out


# seeded relabelling --------------------------------------------------------------

def group_automorphism(group: Group, rng: random.Random) -> list[int]:
    """A random automorphism phi as a list g -> phi(g)."""
    n = group.order
    if group.tuples is not None and len(group.orders) == 1:
        k = rng.choice([k for k in range(1, n) if math.gcd(k, n) == 1] or [1])
        return [(k * g) % n for g in range(n)]
    if group.tuples is not None and group.orders == [2, 2]:
        mats = [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 1)),
                ((1, 0), (1, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 0))]
        m = rng.choice(mats)
        index = {t: i for i, t in enumerate(group.tuples)}
        return [index[tuple((m[r][0] * t[0] + m[r][1] * t[1]) % 2 for r in range(2))]
                for t in group.tuples]
    h = rng.randrange(n)
    return [group.mul[group.mul[h][g]][group.inv[h]] for g in range(n)]


def twist(rows: list, phi: list[int]) -> list:
    """The action g -> sigma_phi(g)."""
    return [rows[phi[g]] for g in range(len(rows))]


def relabel_points(perms: list[list[int]], rng: random.Random) -> list[list[int]]:
    npts = len(perms[0])
    tau = list(range(npts))
    rng.shuffle(tau)
    inv = [0] * npts
    for x, y in enumerate(tau):
        inv[y] = x
    return [[tau[p[inv[x]]] for x in range(npts)] for p in perms]


def conjugate_units(units, p: int, rng: random.Random) -> list:
    while True:
        w = np.array([[rng.randrange(p) for _ in range(2)] for _ in range(2)], dtype=np.int64)
        det = int(w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0]) % p
        if det:
            break
    winv = (pow(det, -1, p) * np.array([[w[1, 1], -w[0, 1]], [-w[1, 0], w[0, 0]]])) % p
    return [((w @ np.array(u) @ winv) % p).tolist() for u in units]


def table_group(group: Group, rng: random.Random, prefix: str) -> tuple[dict, list[int]]:
    """The group as an explicit table with renumbered non-identity elements.

    Returns the descriptor and rho, where new element i is old element rho[i].
    """
    rest = list(range(1, group.order))
    rng.shuffle(rest)
    rho = [0] + rest
    pos = {old: new for new, old in enumerate(rho)}
    mul = [[pos[group.mul[rho[i]][rho[j]]] for j in range(group.order)]
           for i in range(group.order)]
    names = [f"{prefix}{rho[i]}" for i in range(group.order)]
    return {"kind": "table", "mul": mul, "names": names}, rho


def as_table_action(desc: dict) -> dict:
    """The same action given as explicit image tables."""
    alg = Algebra(desc)
    ring = alg.ring
    tables = []
    for g in range(alg.group.order):
        row = []
        for i in range(ring.size):
            x = ring.decode(ring.unrank(i))
            row.append(ring.encode((alg.sigma[g] @ x) % ring.char))
        tables.append(row)
    return {"kind": "table", "tables": tables}


# items -------------------------------------------------------------------------------

class Item:
    """One instance description, the operations it yields and facts about it
    computed by the verifier from the description alone."""

    def __init__(self, name: str, desc: dict, ops: tuple[str, ...], **extra) -> None:
        self.name = name
        self.desc = desc
        self.ops = ops
        self.extra = extra
        self.algebra = Algebra(desc)

    @property
    def kind_tags(self) -> tuple[str, str, str]:
        if "dynamics" in self.desc:
            dyn = self.desc["dynamics"]
            action = "natural" if dyn.get("natural") else "act"
            return "function", dyn["group"]["kind"], f"dynamics:{action}"
        return (self.desc["ring"]["kind"], self.desc["group"]["kind"],
                self.desc["action"]["kind"])


# catalogue ---------------------------------------------------------------------------------

def catalogue_items(seed: int) -> list[Item]:
    """The 20 groups of dynamics.catalogue() as descriptions, in seeded
    order, with the cheap ones repeated (see CHEAP_REPEATS)."""
    from skewsimple.dynamics import catalogue

    items = []
    for T in catalogue():
        if hasattr(T.group, "factors"):
            gdesc = cyclic(*T.group.factors)
        else:
            gdesc = symmetric(len(T.group.permutations[0]))
        desc = {"name": T.name, "dynamics": {"points": T.npoints, "q": T.q, "group": gdesc,
                                             "act": [list(row) for row in T.act]}}
        ops = ("faithful_minimal", "dynamics_simplicity")
        if Group(gdesc).is_abelian:
            ops += ("abelian_freeness",)
        items.append(Item(T.name, desc, ops, caps=T.caps))
    random.Random(seed).shuffle(items)
    return [item for item in items
            for _ in range(1 if item.name in LONG_CATALOGUE else CHEAP_REPEATS)]


def run_catalogue(item: Item) -> dict:
    from skewsimple import dynamics, instances

    caps = item.extra["caps"]
    dyn = item.desc["dynamics"]
    group = instances.group_from_descriptor(dyn["group"], caps)
    T = dynamics.TransformationGroup(dyn["points"], group, dyn["act"], dyn["q"],
                                     item.name, caps)
    out: dict = {"ops": {}, "verdicts": {}}
    for op in item.ops:
        check = getattr(dynamics, op + "_check")
        try:
            rep = check(T)
        except Exception as exc:  # any raise is a failed operation
            out["ops"][op] = f"raised {type(exc).__name__}: {exc}"
            continue
        out["ops"][op] = "violation" if rep.violations else None
        out["verdicts"][op] = {k: v.value for k, v in rep.verdicts.items()}
    if "dynamics_simplicity" in out["verdicts"]:
        sim = T.evaluation.simplicity
        out["witness"] = sim.witness.serialize() if sim.witness is not None else None
    return out


def verify_catalogue(item: Item, out: dict) -> dict[str, str]:
    """op -> contradiction found by the verifier."""
    bad = {}
    alg = item.algebra
    act = item.desc["dynamics"]["act"]
    minimal, faithful, free = transitive_faithful_free(act, alg.group)
    v = out["verdicts"]
    if "faithful_minimal" in v:
        fm = v["faithful_minimal"]
        if (fm["faithful"], fm["minimal"]) != (faithful, minimal):
            bad["faithful_minimal"] = "faithful/minimal differ from the act table"
        elif fm["sigma_injective"] != alg.sigma_injective() or fm["g_simple"] != alg.g_simple():
            bad["faithful_minimal"] = "injectivity or G-simplicity differs"
    if "abelian_freeness" in v and v["abelian_freeness"]["free"] != free:
        bad["abelian_freeness"] = "freeness differs from the act table"
    if "dynamics_simplicity" in v:
        problem = _simplicity_problem(alg, v["dynamics_simplicity"]["simple"],
                                      out.get("witness"), minimal and faithful)
        if problem:
            bad["dynamics_simplicity"] = problem
    return bad


def _simplicity_problem(alg: Algebra, simple, witness, abelian_expected) -> str | None:
    """Checks shared by every workload on one simplicity verdict.

    ``abelian_expected`` is the verdict the paper's theorem forces for abelian
    G (with commutative A), or None when the theorem does not apply.
    """
    if simple is False:
        if witness is None:
            return "non-simple verdict without a witness"
        if not alg.ideal_is_proper([alg.decode_element(witness)]):
            return "non-simplicity witness generates the whole ring"
        if alg.regular():
            return "regular crossed product declared non-simple"
    if simple is not None and alg.group.is_abelian and alg.commutative \
            and abelian_expected is not None and simple != abelian_expected:
        return f"verdict {simple} contradicts the abelian theorem ({abelian_expected})"
    return None


# sweeps --------------------------------------------------------------------------------------

_SAMPLER_GROUPS = (cyclic(2), cyclic(3), cyclic(4), cyclic(2, 2), cyclic(6), symmetric(3))


def _draw_template(rng: random.Random) -> dict | None:
    """One algebraic instance, drawn like the suite's sampler draws them."""
    gdesc = rng.choice(_SAMPLER_GROUPS)
    group = Group(gdesc)
    family = rng.choice(["modular", "matrix", "function", "function"])
    if family == "modular":
        ring = {"kind": "modular", "n": rng.randint(2, 6)}
        size = ring["n"]
    elif family == "matrix":
        k, p = rng.choice([(1, 2), (1, 3), (2, 2), (2, 3)])
        ring = {"kind": "matrix", "size": k, "prime": p}
        size = p ** (k * k)
    else:
        npts, q = rng.randint(1, 4), rng.choice([2, 2, 3, 4])
        ring = {"kind": "function", "points": npts, "q": q}
        size = q ** npts
    if size ** group.order > MAX_SIZE:
        return None
    kinds = ["trivial"]
    if family == "function":
        kinds += ["permutation", "permutation"]
    if family == "matrix" and ring["size"] == 2:
        kinds += ["conjugation"]
    kind = rng.choice(kinds)
    if kind == "trivial":
        action = {"kind": "trivial"}
    elif kind == "permutation":
        npts = ring["points"]
        if group.perms is not None:
            if len(group.perms[0]) > npts:
                return None
            action = {"kind": "permutation", "perms": natural(group, npts)}
        else:
            steps = []
            for n in group.orders:
                options = [k for k in range(npts) if n % (npts // math.gcd(npts, k) if k else 1) == 0]
                steps.append(rng.choice(options))
            action = {"kind": "permutation", "perms": rotation(group, npts, steps)}
    else:
        if group.tuples is None:
            return None
        p = ring["prime"]
        units = []
        for _ in group.orders:
            while True:
                u = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
                if (u[0][0] * u[1][1] - u[0][1] * u[1][0]) % p:
                    break
            units.append(u)
        action = {"kind": "conjugation", "units": _unit_powers(group, p, units)}
    desc = {"ring": ring, "group": gdesc, "action": action}
    if not Algebra(desc).sigma_is_homomorphism():
        return None
    return desc


def _sweep_predicate(sweep: str, alg: Algebra) -> bool:
    abelian, comm = alg.group.is_abelian, alg.commutative
    if sweep == "abelian_simplicity":
        return abelian
    if sweep == "abelian_commutative_simplicity":
        return abelian and comm
    if sweep == "commutative_simplicity":
        return comm
    if sweep == "outer_simplicity":
        # inner automorphisms of a commutative ring are trivial, and
        # conjugation or the trivial action on M_2 is inner
        return abelian and comm and alg.sigma_injective()
    if sweep == "centralizer_kernel":
        return abelian and comm and alg.g_simple()
    return True


def sweep_templates() -> list[tuple[str, dict]]:
    """The fixed templates: SWEEP_TEMPLATES per sweep, drawn with MENU_SEED."""
    out = []
    for index, sweep in enumerate(SWEEPS):
        rng = random.Random(MENU_SEED * 100 + index)
        got = 0
        while got < SWEEP_TEMPLATES:
            desc = _draw_template(rng)
            if desc is not None and _sweep_predicate(sweep, Algebra(desc)):
                out.append((sweep, desc))
                got += 1
    return out


def relabel_algebra(desc: dict, rng: random.Random) -> dict:
    """An isomorphic copy: group automorphism, point renaming, unit conjugation."""
    desc = json.loads(json.dumps(desc))
    group = Group(desc["group"])
    action = desc["action"]
    phi = group_automorphism(group, rng)
    if action["kind"] == "permutation":
        action["perms"] = relabel_points(twist(action["perms"], phi), rng)
    elif action["kind"] == "conjugation":
        action["units"] = conjugate_units(twist(action["units"], phi),
                                          desc["ring"]["prime"], rng)
    return desc


def sweeps_items(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for i, (sweep, template) in enumerate(sweep_templates()):
        desc = relabel_algebra(template, rng)
        alg = Algebra(desc)
        constructive = alg.group.is_abelian and alg.g_simple() and alg.size <= 1 << 16
        ops = (sweep,) + (("constructive",) if constructive else ())
        desc["name"] = f"{sweep}_{i}"
        items.append(Item(desc["name"], desc, ops, sweep=sweep))
    rng.shuffle(items)
    return items


def run_sweep(item: Item) -> dict:
    from skewsimple import actions, criteria, instances, rings, skew
    from skewsimple.config import Caps

    caps = Caps()
    desc = item.desc
    group = instances.group_from_descriptor(desc["group"], caps)
    ring = rings.ring_from_descriptor(desc["ring"], caps)
    action = actions.action_from_descriptor(group, ring, desc["action"])
    ctx = skew.SkewContext(ring, group, action, caps)
    ev = criteria.InstanceEvaluation(ctx)
    sweep = item.extra["sweep"]
    out: dict = {"ops": {}}
    try:
        rep = getattr(criteria, SWEEPS[sweep])(ev)
        out["ops"][sweep] = "violation" if rep.violations else None
        out["verdicts"] = {k: v.value for k, v in rep.verdicts.items()}
        sim = ev.simplicity
        out["simple"] = sim.value
        out["witness"] = sim.witness.serialize() if sim.witness is not None else None
        out["g_simple"] = bool(ev.g_simplicity.value)
        out["injective"] = ev.sigma_injective
    except Exception as exc:  # any raise is a failed operation
        out["ops"][sweep] = f"raised {type(exc).__name__}: {exc}"
    if "constructive" in item.ops:
        try:
            out["constructive"] = _constructive(ctx, ev, skew)
            out["ops"]["constructive"] = None
        except Exception as exc:
            out["ops"]["constructive"] = f"raised {type(exc).__name__}: {exc}"
    return out


def _constructive(ctx, ev, skew) -> list[dict]:
    """support_reduce and central_witness on the ideals the suite uses: the
    simplicity witness's ideal and the ideal of the middle-ranked element."""
    ideals = []
    if ev.simplicity.witness_ideal is not None:
        ideals.append(ev.simplicity.witness_ideal)
    ideals.append(skew.skew_ideal_closure(ctx, [ctx.element_of_rank(1 + (ctx.size - 1) // 2)]))
    results = []
    for ideal in ideals:
        if ideal.is_zero:
            continue
        central = skew.central_witness(ctx, ideal)
        reduced = [(gen.serialize(), skew.support_reduce(ctx, gen).serialize())
                   for gen in ideal.generators if not gen.is_zero()]
        results.append({"generators": [g.serialize() for g in ideal.generators],
                        "central": central.serialize(), "reduced": reduced})
    return results


def verify_sweep(item: Item, out: dict) -> dict[str, str]:
    bad = {}
    alg = item.algebra
    sweep = item.extra["sweep"]
    if "simple" in out:
        g_simple, injective = alg.g_simple(), alg.sigma_injective()
        if out["g_simple"] != g_simple or out["injective"] != injective:
            bad[sweep] = "G-simplicity or injectivity differs from the description"
        problem = _simplicity_problem(alg, out["simple"], out["witness"], g_simple and injective)
        if problem:
            bad[sweep] = problem
    for entry in out.get("constructive", ()):
        gens = [alg.decode_element(g) for g in entry["generators"]]
        z = alg.decode_element(entry["central"])
        if not (alg.is_central(z) and alg.identity_coefficient_is_one(z)
                and alg.in_ideal(gens, z)):
            bad["constructive"] = "central witness is not a central member with coefficient 1"
        for gen, red in entry["reduced"]:
            g, r = alg.decode_element(gen), alg.decode_element(red)
            if not (alg.identity_coefficient_is_one(r) and len(alg.support(r)) <= len(alg.support(g))
                    and alg.in_ideal([g], r)):
                bad["constructive"] = "support reduction left the ideal or grew the support"
    return bad


# reports ------------------------------------------------------------------------------------

def _report_templates(rng: random.Random) -> list[dict]:
    """Instance files covering every ring, group and action kind (|R| <= 4096)."""
    out = []

    def alg(name, ring, gdesc, action):
        out.append({"name": name, "ring": ring, "group": gdesc, "action": action})

    def dyn(name, points, q, gdesc, act=None):
        body = {"points": points, "q": q, "group": gdesc}
        if act is None:
            body["natural"] = True
        else:
            body["act"] = act
        out.append({"name": name, "dynamics": body})

    def fn(points, q):
        return {"kind": "function", "points": points, "q": q}

    def perms(group, rows):
        return {"kind": "permutation", "perms": relabel_points(twist(rows, group_automorphism(group, rng)), rng)}

    z2, z3, z4, v4, s3 = (Group(cyclic(2)), Group(cyclic(3)), Group(cyclic(4)),
                          Group(cyclic(2, 2)), Group(symmetric(3)))
    trivial = {"kind": "trivial"}
    # residue rings, trivial action (their only automorphism)
    alg("mod3_Z2", {"kind": "modular", "n": 3}, cyclic(2), trivial)
    alg("mod5_Z3", {"kind": "modular", "n": 5}, cyclic(3), trivial)
    alg("mod6_Z2", {"kind": "modular", "n": 6}, cyclic(2), trivial)
    alg("mod2_S3", {"kind": "modular", "n": 2}, symmetric(3), trivial)
    tz4, _ = table_group(z4, rng, "t")
    alg("mod4_tableZ4", {"kind": "modular", "n": 4}, tz4, trivial)
    gens = relabel_points([[1, 0, 2], [1, 2, 0]], rng)
    alg("mod3_permS3", {"kind": "modular", "n": 3},
        {"kind": "permutation", "degree": 3, "generators": gens}, trivial)
    # matrix rings
    alg("M1F3_Z2", {"kind": "matrix", "size": 1, "prime": 3}, cyclic(2), trivial)
    alg("M2F2_Z2_trivial", {"kind": "matrix", "size": 2, "prime": 2}, cyclic(2), trivial)
    swap = [[0, 1], [1, 0]]
    conj2 = {"kind": "conjugation",
             "units": conjugate_units(_unit_powers(z2, 2, [swap]), 2, rng)}
    alg("M2F2_Z2_conj", {"kind": "matrix", "size": 2, "prime": 2}, cyclic(2), conj2)
    conj3 = {"kind": "conjugation",
             "units": conjugate_units(_unit_powers(z3, 2, [[[0, 1], [1, 1]]]), 2, rng)}
    alg("M2F2_Z3_conj", {"kind": "matrix", "size": 2, "prime": 2}, cyclic(3), conj3)
    tz2, rho = table_group(z2, rng, "s")
    alg("M2F2_tableZ2_conj", {"kind": "matrix", "size": 2, "prime": 2}, tz2,
        {"kind": "conjugation", "units": twist(conj2["units"], rho)})
    alg("M2F2_Z2_table", {"kind": "matrix", "size": 2, "prime": 2}, cyclic(2),
        as_table_action({"ring": {"kind": "matrix", "size": 2, "prime": 2},
                         "group": cyclic(2), "action": conj2}))
    # function rings
    alg("F2x2_Z2_swap", fn(2, 2), cyclic(2), perms(z2, rotation(z2, 2, [1])))
    alg("F2x3_Z3_rot", fn(3, 2), cyclic(3), perms(z3, rotation(z3, 3, [1])))
    alg("F3x2_Z2_swap", fn(2, 3), cyclic(2), perms(z2, rotation(z2, 2, [1])))
    alg("F4x2_Z2_swap", fn(2, 4), cyclic(2), perms(z2, rotation(z2, 2, [1])))
    alg("F2x2_V4_quot", fn(2, 2), cyclic(2, 2), perms(v4, rotation(v4, 2, [1, 0])))
    alg("F2x2_S3_sign", fn(2, 2), symmetric(3), perms(s3, sign_swap(s3)))
    alg("F2x4_Z2_fixed", fn(4, 2), cyclic(2), perms(z2, [[0, 1, 2, 3], [1, 0, 2, 3]]))
    tz4b, rho = table_group(z4, rng, "r")
    alg("F2x2_tableZ4_rot", fn(2, 2), tz4b,
        {"kind": "permutation", "perms": twist(rotation(z4, 2, [1]), rho)})
    p2 = Group({"kind": "permutation", "degree": 2, "generators": [[1, 0]]})
    alg("F2x2_permZ2", fn(2, 2), {"kind": "permutation", "degree": 2, "generators": [[1, 0]]},
        {"kind": "permutation", "perms": natural(p2, 2)})
    for name, ring, gdesc, group, rows in (
            ("F2x2_Z2_table", fn(2, 2), cyclic(2), z2, rotation(z2, 2, [1])),
            ("F2x3_Z3_table", fn(3, 2), cyclic(3), z3, rotation(z3, 3, [1]))):
        plain = {"ring": ring, "group": gdesc, "action": perms(group, rows)}
        alg(name, ring, gdesc, as_table_action(plain))
    # Frobenius on F_4: an outer Galois action, given as a table
    alg("F4_Z2_frobenius", fn(1, 4), cyclic(2),
        {"kind": "table", "tables": [[[0], [1], [2], [3]], [[0], [1], [3], [2]]]})
    # dynamical instances
    dyn("dyn_swap", 2, 2, cyclic(2), relabel_points(rotation(z2, 2, [1]), rng))
    dyn("dyn_rot3", 3, 2, cyclic(3), relabel_points(rotation(z3, 3, [1]), rng))
    dyn("dyn_swap_q3", 2, 3, cyclic(2), relabel_points(rotation(z2, 2, [1]), rng))
    dyn("dyn_two_2cycles", 4, 2, cyclic(2), relabel_points([[0, 1, 2, 3], [1, 0, 3, 2]], rng))
    dyn("dyn_quotient_Z4", 2, 2, cyclic(4), relabel_points(rotation(z4, 2, [1]), rng))
    dyn("dyn_natural_S2", 2, 2, symmetric(2))
    gens = relabel_points([[1, 2, 0]], rng)
    dyn("dyn_natural_permZ3", 3, 2, {"kind": "permutation", "degree": 3, "generators": gens})
    tz2b, rho = table_group(z2, rng, "d")
    dyn("dyn_tableZ2", 2, 2, tz2b, twist(rotation(z2, 2, [1]), rho))
    dyn("dyn_trivial_q3", 1, 3, cyclic(2), [[0], [0]])
    dyn("dyn_swap_fixed", 3, 2, cyclic(2), relabel_points([[0, 1, 2], [1, 0, 2]], rng))
    return out


# Above the enumeration cap with witness search on, composite characteristic:
# every simplicity check ends capacity_exceeded because the witness search
# refuses composite characteristic, although p*1 always generates a proper
# ideal. Inputs are fixed, so the failures are the same in every round. The
# groups are non-abelian so that the centre (n^3 elements) stays under the cap
# and only the simplicity checks fail.
COMPOSITE_ABOVE_CAP = (
    {"name": "composite_Z10_S3", "ring": {"kind": "modular", "n": 10},
     "group": symmetric(3), "action": {"kind": "trivial"}, "witness_search": True},
    {"name": "composite_Z15_permS3", "ring": {"kind": "modular", "n": 15},
     "group": {"kind": "permutation", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
     "action": {"kind": "trivial"}, "witness_search": True},
)
COMPOSITE_FAILED_CHECKS = ("necessary_conditions", "abelian_simplicity",
                           "commutative_simplicity")


def reports_items(seed: int) -> list[Item]:
    rng = random.Random(seed)
    docs = _report_templates(rng)
    docs += [json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))]
    docs += [json.loads(json.dumps(d)) for d in COMPOSITE_ABOVE_CAP]
    items = []
    for doc in docs:
        doc["seed"] = seed
        ops = DYNAMICS_CHECKS if "dynamics" in doc else ALGEBRA_CHECKS
        items.append(Item(doc["name"], doc, ops, text=json.dumps(doc, indent=1)))
    rng.shuffle(items)
    return items


def run_report(item: Item) -> dict:
    """`skewsimple check` then `skewsimple report` on one instance file."""
    from skewsimple import instances, report

    out: dict = {"ops": {}}
    try:
        spec = instances.parse_instance(item.extra["text"])
        rep = report.run_checks(spec)
        canonical = report.canonical_json(rep)
        problems = report.revalidate_report(json.loads(canonical))
    except Exception as exc:  # any raise fails every check of the instance
        for op in item.ops:
            out["ops"][op] = f"raised {type(exc).__name__}: {exc}"
        return out
    for op in item.ops:
        entry = rep["checks"].get(op)
        if entry is None:
            out["ops"][op] = "missing from the report"
        elif entry["status"] == "capacity_exceeded":
            out["ops"][op] = "capacity_exceeded"
        elif entry.get("violations"):
            out["ops"][op] = "violation"
        elif any(p.startswith(op + ".") for p in problems):
            out["ops"][op] = "witness failed revalidation"
        else:
            out["ops"][op] = None
    out["canonical"] = canonical
    out["problems"] = problems
    return out


def verify_report(item: Item, out: dict) -> dict[str, str]:
    bad = {}
    if "canonical" not in out:
        return bad
    alg = item.algebra
    checks = json.loads(out["canonical"])["checks"]
    expected = None
    if alg.group.is_abelian and alg.commutative:
        expected = alg.g_simple() and alg.sigma_injective()
    for op, entry in checks.items():
        verdicts = entry.get("verdicts", {})
        simple = verdicts.get("simple")
        if simple is not None:
            witness = (simple.get("witness") or {}).get("element")
            if simple["value"] is False and witness is None:
                witness = _find_witness(checks)
            problem = _simplicity_problem(alg, simple["value"], witness, expected)
            if problem:
                bad[op] = problem
        if "g_simple" in verdicts and verdicts["g_simple"]["value"] is not None \
                and bool(verdicts["g_simple"]["value"]) != alg.g_simple():
            bad[op] = "G-simplicity differs from the description"
        if "sigma_injective" in verdicts and verdicts["sigma_injective"]["value"] != alg.sigma_injective():
            bad[op] = "injectivity differs from the description"
    if "dynamics" in item.desc and alg.act is not None:
        minimal, faithful, free = transitive_faithful_free(alg.act, alg.group)
        fm = checks.get("faithful_minimal", {}).get("verdicts", {})
        if fm and (fm["minimal"]["value"], fm["faithful"]["value"]) != (minimal, faithful):
            bad["faithful_minimal"] = "faithful/minimal differ from the act table"
        af = checks.get("abelian_freeness", {}).get("verdicts", {})
        if af and af["free"]["value"] != free:
            bad["abelian_freeness"] = "freeness differs from the act table"
    return bad


def _find_witness(checks: dict):
    """Checks that print a non-simple verdict without its witness share the
    evaluation of abelian_simplicity, which prints it."""
    verdict = checks.get("abelian_simplicity", {}).get("verdicts", {}).get("simple", {})
    return (verdict.get("witness") or {}).get("element")


WORKLOADS = {
    "catalogue": (catalogue_items, run_catalogue, verify_catalogue),
    "sweeps": (sweeps_items, run_sweep, verify_sweep),
    "reports": (reports_items, run_report, verify_report),
}
