"""The skew product ring R = A x| G: elements, multiplication, centre and
centralizer structure, ideal closures, the simplicity oracle (a sweep or
witness search for proper ideals, and Norton's criterion to certify that there
are none), and the constructive support-reduction / central-witness procedures.

Elements are finite-support maps from group indices to nonzero coefficient
payloads. |R| = |A|^|G| is finite, and every element has a canonical rank
(mixed radix over coefficient ranks, identity slot most significant: the
digits of R's coordinates in ``SkewContext.rank_columns``), which fixes sweep
order, witness choice and report determinism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .actions import ActionMap, GSimplicity, is_G_simple, is_outer_action, kernel
from .closure import (BlockMonomialStack, ClosureEngine, HowellBasis, check_int64,
                      exact_dtype, kernel_basis, kernel_rows, rowwise, solve)
from .config import Caps
from .errors import CapacityError, DomainError, PreconditionError
from .groups import GroupTable, Subgroup
from .rings import MAX_DIM, RingElement, RingSpec, _is_prime, rank_to_vec, vec_to_rank


def check_dimension(dim_a: int, group: GroupTable) -> None:
    """Refuse A x| G with more than MAX_DIM coordinates, for A of dimension
    dim_a; callers check this before they build the ring (from its
    descriptor) or validate the action, whose costs grow with dim_A."""
    dim = group.order * dim_a
    if dim > MAX_DIM:
        raise CapacityError("dimension", MAX_DIM, dim, "skew ring coordinates")


class SkewContext:
    """Bundles (ring, group, validated action), cached sweep machinery and
    the per-instance facts the checks compare, each decided once."""

    def __init__(self, ring: RingSpec, group: GroupTable, action: ActionMap,
                 caps: Caps | None = None) -> None:
        if action.ring != ring or action.group is not group:
            raise DomainError("action does not match the given ring and group")
        check_dimension(ring.dim, group)
        action.ensure_valid()
        self.ring = ring
        self.group = group
        self.action = action
        self.caps = caps or ring.caps
        self.size = ring.size**group.order
        self.dim = group.order * ring.dim
        self.char = ring.char
        # above the cap, search for a witness (True) or refuse (False);
        # instance files must opt in
        self.witness_search = True
        # the Howell basis of the ideal of one generator, keyed by its
        # coordinate tuple; holds the ideals the oracle returns and those of
        # ``skew_ideal_closure`` (see there), never a sweep's full closures
        self.ideal_memo: dict[tuple, HowellBasis] = {}

    # element constructors --------------------------------------------------
    def element(self, coeffs: dict) -> "SkewElement":
        return SkewElement(self, {g: a for g, a in coeffs.items() if a != self.ring.zero})

    def monomial(self, payload, g: int) -> "SkewElement":
        self.group._check_index(g)
        if payload == self.ring.zero:
            return self.zero
        return SkewElement(self, {g: payload})

    def unit_monomial(self, g: int) -> "SkewElement":
        return self.monomial(self.ring.one, g)

    @cached_property
    def zero(self) -> "SkewElement":
        return SkewElement(self, {})

    @cached_property
    def one(self) -> "SkewElement":
        return SkewElement(self, {0: self.ring.one})

    # vector coordinates ------------------------------------------------------
    def vec_of(self, r: "SkewElement") -> tuple[int, ...]:
        d = self.ring.dim
        out = [0] * self.dim
        for g, a in r.coeffs.items():
            out[g * d:(g + 1) * d] = self.ring.to_vec(a)
        return tuple(out)

    def element_of_vec(self, vec: Sequence[int]) -> "SkewElement":
        """The element with these coordinates, read modulo char: the vector
        becomes a list of ints once, and only slots with a nonzero entry are
        decoded (a slot whose entries are multiples of char decodes to zero
        and is dropped too)."""
        ring, d = self.ring, self.ring.dim
        zero, from_vec = ring.zero, ring.from_vec
        vals = vec.tolist() if isinstance(vec, np.ndarray) else list(map(int, vec))
        coeffs = {}
        for g, lo in enumerate(range(0, self.dim, d)):
            slot = vals[lo:lo + d]
            if any(slot):
                a = from_vec(slot)
                if a != zero:
                    coeffs[g] = a
        return SkewElement(self, coeffs)

    def rank_of(self, r: "SkewElement") -> int:
        return vec_to_rank(self.vec_of(r), self.char, self.rank_columns)

    def element_of_rank(self, i: int) -> "SkewElement":
        return self.element_of_vec(rank_to_vec(i, self.char, self.rank_columns))

    def elements(self) -> Iterator["SkewElement"]:
        """Every element of R in canonical rank order; cap-checked."""
        self.check_within_cap("skew ring enumeration")
        for i in range(self.size):
            yield self.element_of_rank(i)

    def check_within_cap(self, what: str) -> None:
        if self.size > self.caps.enumeration:
            raise CapacityError("enumeration", self.caps.enumeration, self.size, what)

    def members(self, basis: HowellBasis, what: str) -> list["SkewElement"]:
        """The elements of a submodule of R's coordinates, in canonical rank
        order; cap-checked on the submodule's size as ``what``."""
        vecs = basis.sorted_members(self.rank_columns, self.caps.enumeration, what)
        return [self.element_of_vec(v) for v in vecs.tolist()]

    # cached machinery ---------------------------------------------------------
    @cached_property
    def module_generators(self) -> list[tuple]:
        """(payload, group index) monomials spanning R additively."""
        return [(b, h) for h in range(self.group.order)
                for b in self.ring.additive_generators()]

    @cached_property
    def structure_constants(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lefts, rights, autos) over Z/char. Row s of lefts (of rights) is
        the dim_A x dim_A matrix of a -> b_s a (of a -> a b_s) on A, for the
        basis payload b_s, read row by row, so that (x @ lefts) holds the
        matrix of left multiplication by x; autos[g] is the matrix of sigma_g.
        """
        d = self.ring.dim
        lefts, rights = self.ring.structure_constants
        autos = [auto.matrix() for auto in self.action.autos]
        return lefts.reshape(d, d * d), rights.reshape(d, d * d), np.stack(autos)

    @cached_property
    def _group_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """G's multiplication and inverse tables as index arrays, and the
        table of quotients [g, t] = g^-1 t."""
        mul = np.array(self.group.mul_table, dtype=np.intp)
        inv = np.array(self.group.inv_table, dtype=np.intp)
        return mul, inv, mul[inv]

    @cached_property
    def _block_sources(self) -> tuple[np.ndarray, np.ndarray]:
        """(left, right) gather indices: block (k, g) of L_r is the block of
        h = left[k, g] = k g^-1 (so hg = k), and block (k, g) of R_r is the
        block of (h, g) with h = g^-1 k (so gh = k), at index right[g, k] of
        the flattened (h, g) grid."""
        mul, inv, quotients = self._group_arrays
        return mul[:, inv], quotients * self.group.order + np.arange(self.group.order)[:, None]

    @cached_property
    def _block_operands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``structure_constants`` in ``closure.exact_dtype`` for sums of dim
        terms: no product of the block builders or of ``products`` sums more
        than dim products of entries in 0..char-1. Refuses the moduli whose
        int64 products can wrap, before any such product is taken."""
        check_int64(self.char, self.dim)
        dtype = exact_dtype(self.dim, self.char)
        return tuple(m.astype(dtype) for m in self.structure_constants)

    # every operand is non-negative, so fmod is the remainder modulo char
    def left_blocks(self, xs: np.ndarray) -> np.ndarray:
        """[r, h] = L(x_h) S_h for the rows x of xs (entries in 0..char-1),
        reduced modulo char in the dtype of ``_block_operands``: L the left
        multiplication of A (its structure constants), x_h the coefficient
        vector of slot h and S_h the matrix of sigma_h."""
        n, d = self.char, self.ring.dim
        lefts, _, autos = self._block_operands
        blocks = xs.reshape(-1, d).astype(lefts.dtype, copy=False) @ lefts   # L(x_h)
        np.fmod(blocks, n, out=blocks)
        blocks = blocks.reshape(-1, self.group.order, d, d) @ autos
        np.fmod(blocks, n, out=blocks)
        return blocks

    def right_blocks(self, cs: np.ndarray) -> np.ndarray:
        """[i, k] = R(S_k c_i) for the rows c_i of cs, coefficient vectors
        (entries in 0..char-1), reduced modulo char in the dtype of
        ``_block_operands``: R the right multiplication of A and S_k the
        matrix of sigma_k."""
        n, d = self.char, self.ring.dim
        _, rights, autos = self._block_operands
        # [i, (k, j)] = entry j of S_k c_i
        images = cs.reshape(-1, d).astype(rights.dtype, copy=False) @ autos.transpose(
            2, 0, 1).reshape(d, -1)
        np.fmod(images, n, out=images)
        blocks = images.reshape(-1, d) @ rights
        np.fmod(blocks, n, out=blocks)
        return blocks.reshape(-1, self.group.order, d, d)

    @cached_property
    def ideal_operator_matrices(self) -> BlockMonomialStack:
        """Left/right multiplication by each ring generator of R, as one
        block-monomial stack (a coordinate block per slot) of interleaved
        (L, R) pairs: first b_t u_e for the basis payloads b_t, then u_g for
        g in ``group.generators``.

        (b_t u_e)(a u_g) = b_t a u_g and (a u_g)(b_t u_e) = a sigma_g(b_t) u_g
        keep every slot, through L(b_t) and R(sigma_g(b_t)); u_h (a u_g) =
        sigma_h(a) u_{hg} and (a u_g) u_h = a u_{gh} move slot g to hg and
        to gh, through S_h and the identity. L_{xy} = L_x L_y, so a submodule
        stable under these is stable under multiplication by all of R, that
        is, it is a two-sided ideal.
        """
        n, d, order = self.char, self.ring.dim, self.group.order
        lefts, _, autos = self.structure_constants
        gens = np.array(self.group.generators, dtype=np.intp)
        mul = self._group_arrays[0]
        mats = np.empty((2 * (d + len(gens)), order, d, d), dtype=np.int64)
        mats[0:2 * d:2] = lefts.reshape(d, 1, d, d)
        eye = np.eye(d)
        mats[1:2 * d:2] = self.right_blocks(eye)   # [t, g] = R(S_g b_t)
        mats[2 * d::2] = autos[gens][:, None]
        mats[2 * d + 1::2] = eye
        targets = np.empty(mats.shape[:2], dtype=np.intp)
        targets[:2 * d] = mul[0]   # e g = g: every slot stays
        targets[2 * d::2] = mul[gens]
        targets[2 * d + 1::2] = mul[:, gens].T
        return BlockMonomialStack(n, targets, mats)

    @cached_property
    def engine(self) -> ClosureEngine:
        return ClosureEngine(self.char, self.dim, self.ideal_operator_matrices)

    @cached_property
    def dual_engine(self) -> ClosureEngine:
        """Closures under the transposed operators (``ClosureEngine.T``); the
        annihilator of an ideal (its orthogonal complement) is stable under
        them."""
        return self.engine.T

    @cached_property
    def unit_monomial_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """(slots, sigmas): what the sweep reads the unit orbits with
        (``_orbit_images``). c u_g r u_h = sum_k c sigma_g(r_k) u_{gkh}, so
        row (g, c) of the sigma stack is (c S_g)^T, for the units c of
        Z/char, and the slot table lists, in the order g, h, c and then slot
        t, where the coordinates of the product (g, c, k) with g k h = t lie
        among the products of the blocks r_k with the stack, flattened."""
        n, d, order = self.char, self.ring.dim, self.group.order
        mul, inv, quotients = self._group_arrays
        scalars = np.array(_scalar_units(n), dtype=np.int64)
        autos = self.structure_constants[2].transpose(0, 2, 1)
        sigmas = (scalars[:, None, None] * autos[:, None]) % n
        # [g, h, t] = g^-1 t h^-1, the slot k that g k h = t reads
        sources = mul[quotients[:, None, :], inv[None, :, None]]
        rows = np.arange(order * len(scalars)).reshape(order, 1, -1, 1) * order
        blocks = rows + sources[:, :, None, :]   # [g, h, c, t]
        return (blocks[..., None] * d + np.arange(d)).ravel(), sigmas

    def products(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The coordinates of x y for each pair of rows x of xs and y of ys
        (entries in 0..char-1), as an int64 array reduced modulo char.

        x y = sum_{g,h} x_g sigma_g(y_h) u_{gh}, and x_g sigma_g(y_h) =
        L(x_g) S_g y_h (``left_blocks``). So slot t of x y is the sum over g
        of L(x_g) S_g y_{g^-1 t}: one product over (g, j), whose sums have
        dim terms of at most (char-1)^2. Rows go through in chunks
        (``closure.rowwise``)."""
        n, d, order, dim = self.char, self.ring.dim, self.group.order, self.dim
        sources = self._group_arrays[2]   # [g, t] = g^-1 t

        def chunk(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            by_x = self.left_blocks(x)
            by_x = by_x.transpose(0, 2, 1, 3).reshape(-1, d, dim)   # [r, i, (g, j)]
            # [r, (g, j), t] = entry j of y_{g^-1 t}
            shifted = y.astype(by_x.dtype).reshape(-1, order, d)[:, sources]
            out = by_x @ shifted.transpose(0, 1, 3, 2).reshape(-1, dim, order)
            np.fmod(out, n, out=out)
            return out.transpose(0, 2, 1).astype(np.int64, order="C").reshape(-1, dim)

        return rowwise(chunk, np.asarray(xs), np.asarray(ys), 8 * order * (d * d + 2 * dim))

    @cached_property
    def rank_columns(self) -> np.ndarray:
        """The coordinates in rank order, most significant first: slot by
        slot from e, each in ``RingSpec.rank_columns`` order, so ranks compare
        as these columns compare lexicographically."""
        d = self.ring.dim
        return (np.arange(self.group.order)[:, None] * d + self.ring.rank_columns).ravel()

    # centralizer of A and centre --------------------------------------------------
    @cached_property
    def centralizer_slots(self) -> list[HowellBasis]:
        """Per slot g, C_g = {a : b a = a sigma_g(b) for all b} as a Howell
        basis over Z/char in A's coordinates (``RingAutomorphism.centralizer``).

        The centralizer of A in R is the direct sum of the C_g u_g, since
        b (a u_g) - (a u_g) b = (b a - a sigma_g(b)) u_g keeps every slot.
        """
        return [auto.centralizer for auto in self.action.autos]

    @cached_property
    def centralizer_rows(self) -> list[np.ndarray]:
        """The Howell rows of the centralizer of A in R: those of each C_g,
        lifted to its slot g, in slot order."""
        d = self.ring.dim
        rows = []
        for g, slot in enumerate(self.centralizer_slots):
            for row in slot.rows:
                lifted = np.zeros(self.dim, dtype=np.int64)
                lifted[g * d:(g + 1) * d] = row
                rows.append(lifted)
        return rows

    @cached_property
    def center_basis(self) -> HowellBasis:
        """The centre as a submodule of (Z/char)^dim: the kernel of
        z -> x z - z x over the ring generators x, since commuting with a
        ring-generating set is being central. It is found inside the
        centralizer of A, against the unit monomials u_g, g in
        ``group.generators``.

        Commuting with every u_h is the twisted conjugacy law
        a_{hgh^-1} = sigma_h(a_g), which ties coefficients inside one
        conjugacy class only. So the centre is the direct sum of its parts on
        the classes, its Howell form is the union of theirs, and every basis
        row lies in one class."""
        n, rows = self.char, self.centralizer_rows
        # the (L, R) pairs of the u_g follow those of the dim_A basis payloads
        products = self.ideal_operator_matrices.apply(np.stack(rows))[:, 2 * self.ring.dim:]
        images = (products[:, 0::2] - products[:, 1::2]) % n
        return kernel_basis(n, rows, images.reshape(len(rows), -1))

    # per-instance facts, each decided once and kept here -----------------------
    @cached_property
    def simplicity(self) -> "SkewSimplicity":
        """The oracle's verdict (``is_simple``)."""
        return is_simple(self)

    @cached_property
    def g_simplicity(self) -> GSimplicity:
        return is_G_simple(self.action)

    @cached_property
    def kernel(self) -> Subgroup:
        return kernel(self.action)

    @property
    def sigma_injective(self) -> bool:
        return self.kernel.is_trivial

    @cached_property
    def outer(self) -> bool:
        return is_outer_action(self.action)

    @cached_property
    def max_commutative(self) -> bool | None:
        """Whether A u_e is its own centralizer; None for noncommutative A."""
        return is_max_commutative_A(self) if self.ring.is_commutative else None

    @cached_property
    def center_obstruction(self) -> "SkewElement | None":
        """``criteria.field_obstruction`` of this context: a nonzero non-unit
        of the centre, or None when the centre is a field."""
        from . import criteria   # criteria builds on this module; read at call time
        return criteria.field_obstruction(self)

    @property
    def center_is_field(self) -> bool:
        return self.center_obstruction is None

    def __repr__(self) -> str:
        return f"SkewContext({self.ring!r} x| {self.group!r}, size={self.size})"


class SkewElement:
    """Finite-support coefficient map; zero coefficients are never stored."""

    __slots__ = ("ctx", "coeffs", "_key")

    def __init__(self, ctx: SkewContext, coeffs: dict) -> None:
        self.ctx = ctx
        self.coeffs = coeffs
        self._key = None

    def _check_ctx(self, other: "SkewElement") -> None:
        if not isinstance(other, SkewElement):
            raise DomainError(f"cannot combine SkewElement with {type(other).__name__}")
        if other.ctx is not self.ctx:
            raise DomainError("operands live in different skew ring contexts")

    def key(self) -> tuple:
        if self._key is None:
            self._key = tuple(sorted(self.coeffs.items()))
        return self._key

    def __add__(self, other: "SkewElement") -> "SkewElement":
        self._check_ctx(other)
        ring = self.ctx.ring
        out = dict(self.coeffs)
        for g, b in other.coeffs.items():
            s = ring.add(out.get(g, ring.zero), b)
            if s == ring.zero:
                out.pop(g, None)
            else:
                out[g] = s
        return SkewElement(self.ctx, out)

    def __neg__(self) -> "SkewElement":
        ring = self.ctx.ring
        return SkewElement(self.ctx, {g: ring.neg(a) for g, a in self.coeffs.items()})

    def __sub__(self, other: "SkewElement") -> "SkewElement":
        return self + (-other)

    def __mul__(self, other: "SkewElement") -> "SkewElement":
        """Bilinear extension of (a u_g)(b u_h) = a sigma_g(b) u_{gh}."""
        self._check_ctx(other)
        ctx = self.ctx
        ring, group, action = ctx.ring, ctx.group, ctx.action
        out: dict = {}
        for g, a in self.coeffs.items():
            row = group.mul_table[g]
            for h, b in other.coeffs.items():
                gh = row[h]
                c = ring.mul(a, action.apply(g, b))
                s = ring.add(out.get(gh, ring.zero), c)
                if s == ring.zero:
                    out.pop(gh, None)
                else:
                    out[gh] = s
        return SkewElement(ctx, out)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SkewElement) and other.ctx is self.ctx
                and other.key() == self.key())

    def __hash__(self) -> int:
        return hash(self.key())

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.coeffs)

    def serialize(self) -> list:
        group, ring = self.ctx.group, self.ctx.ring
        return [[group.name(g), ring.payload_json(a)] for g, a in sorted(self.coeffs.items())]

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        ring, group = self.ctx.ring, self.ctx.group
        return " + ".join(f"{ring.label(a)}*u[{group.name(g)}]"
                          for g, a in sorted(self.coeffs.items()))


# elementary maps -------------------------------------------------------------

def augmentation(r: SkewElement) -> RingElement:
    """Sum of all coefficients (a ring morphism exactly when the kernel is G)."""
    ring = r.ctx.ring
    total = ring.zero
    for a in r.coeffs.values():
        total = ring.add(total, a)
    return ring.element(total)


def coeff_at_e(r: SkewElement) -> RingElement:
    ring = r.ctx.ring
    return ring.element(r.coeffs.get(0, ring.zero))


def support(r: SkewElement) -> frozenset[int]:
    return r.support


# centralizer and centre ------------------------------------------------------

def _slot_payloads(ctx: SkewContext, g: int) -> list:
    """The members of C_g (see ``SkewContext.centralizer_slots``) in
    canonical payload order; cap-checked on |C_g|."""
    return ctx.ring.members(ctx.centralizer_slots[g], "centralizer component")


def centralizer_components(ctx: SkewContext) -> list[list]:
    """Per-slot payload sets C_g = {a : a sigma_g(b) = b a for all b}.

    The centralizer of the coefficient ring inside R is exactly the set of
    elements whose g-coefficient lies in C_g for every g.
    """
    return [_slot_payloads(ctx, g) for g in range(ctx.group.order)]


def centralizer_of_A(ctx: SkewContext) -> list[SkewElement]:
    """All elements of R commuting with the coefficient ring, in canonical
    rank order; cap-checked."""
    basis = HowellBasis(ctx.char, ctx.dim)
    for row in ctx.centralizer_rows:
        basis.insert(row)
    return ctx.members(basis, "centralizer materialization")


def is_max_commutative_A(ctx: SkewContext) -> bool:
    """Whether A u_e is its own centralizer (A must be commutative)."""
    if not ctx.ring.is_commutative:
        raise DomainError("maximal commutativity test requires a commutative coefficient ring")
    return all(slot.rank == 0 for slot in ctx.centralizer_slots[1:])


def commuting_witness_outside_A(ctx: SkewContext) -> SkewElement | None:
    """The nonzero a u_g (g != e) commuting with A of least g, and of least
    rank a within C_g (``HowellBasis.least_member``), when one exists."""
    ring = ctx.ring
    for g, slot in enumerate(ctx.centralizer_slots[1:], 1):
        if slot.rank:
            return ctx.monomial(ring.from_vec(slot.least_member(ring.rank_columns).tolist()), g)
    return None


def skew_center(ctx: SkewContext) -> list[SkewElement]:
    """The centre of R in canonical rank order: the members of
    ``SkewContext.center_basis``, cap-checked on |Z|."""
    return ctx.members(ctx.center_basis, "centre materialization")


# r = sum_h r_h u_h sends a u_g to r_h sigma_h(a) u_{hg} on the left and to
# a sigma_g(r_h) u_{gh} on the right. So block (hg, g) of L_r is L(r_h) S_h
# (``SkewContext.left_blocks``) and block (gh, g) of R_r is R(S_g r_h)
# (``SkewContext.right_blocks``).

def left_multiplication(ctx: SkewContext, vec: Sequence[int]) -> np.ndarray:
    """The matrix of x -> r x over Z/char, for r with coordinate vector vec."""
    blocks = ctx.left_blocks(np.asarray(vec, dtype=np.int64) % ctx.char)[0]   # [h]
    return _assemble(ctx, blocks[ctx._block_sources[0]].transpose(0, 2, 1, 3))


def right_multiplication(ctx: SkewContext, vec: Sequence[int]) -> np.ndarray:
    """The matrix of x -> x r over Z/char, for r with coordinate vector vec."""
    blocks = ctx.right_blocks(np.asarray(vec, dtype=np.int64) % ctx.char)   # [h, g]
    d = ctx.ring.dim
    return _assemble(ctx, blocks.reshape(-1, d, d)[ctx._block_sources[1]].transpose(1, 2, 0, 3))


def _assemble(ctx: SkewContext, blocks: np.ndarray) -> np.ndarray:
    """The int64 dim x dim matrix whose block (k, g) is blocks[k, :, g]."""
    return np.ascontiguousarray(blocks, dtype=np.int64).reshape(ctx.dim, ctx.dim)


# ideals and the simplicity oracle ---------------------------------------------

@dataclass(frozen=True)
class SkewIdeal:
    """A two-sided ideal of R, held as a Howell basis over Z/char."""

    ctx: SkewContext
    generators: tuple
    basis: HowellBasis

    @property
    def size(self) -> int:
        return self.basis.size

    @property
    def is_full(self) -> bool:
        return self.basis.is_full

    @property
    def is_zero(self) -> bool:
        return self.size == 1

    def contains(self, r: SkewElement) -> bool:
        return self.basis.contains(self.ctx.vec_of(r))

    def iter_vectors(self) -> Iterator[tuple]:
        return self.basis.iter_vectors()

    def elements(self) -> list[SkewElement]:
        """Every member in canonical rank order; cap-checked on the size."""
        return self.ctx.members(self.basis, "ideal materialization")

    def validate_closed(self) -> bool:
        """Recheck the basis: its rows' negatives, pairwise sums and products
        with every module generator on either side lie in the ideal. All three
        are linear in the row, so the rows stand for every member (tests)."""
        ctx = self.ctx
        rows = [ctx.element_of_vec(v) for v in self.basis.rows]
        monos = [ctx.monomial(b, h) for b, h in ctx.module_generators]
        for i, r in enumerate(rows):
            if not self.contains(-r) or not all(self.contains(r + s) for s in rows[i:]):
                return False
            if not all(self.contains(m * r) and self.contains(r * m) for m in monos):
                return False
        return True


def skew_ideal_closure(ctx: SkewContext, generators: Iterable[SkewElement]) -> SkewIdeal:
    """Two-sided ideal generated by the given elements (no materialization).

    The ideal of a single generator is read from ``ctx.ideal_memo`` when the
    context has already closed that generator, and stored there otherwise:
    the procedures close the same element more than once (an ideal's own
    generators in ``support_reduce``, the oracle's witness in
    ``central_witness``). The Howell form is canonical, so a stored basis is
    the one a fresh closure would build.
    """
    gens = tuple(generators)
    for r in gens:
        if r.ctx is not ctx:
            raise DomainError("generator belongs to a different context")
    vecs = [ctx.vec_of(r) for r in gens]
    if len(vecs) != 1:
        return SkewIdeal(ctx, gens, ctx.engine.closure(vecs))
    basis = ctx.ideal_memo.get(vecs[0])
    if basis is None:
        basis = ctx.ideal_memo[vecs[0]] = ctx.engine.closure(vecs)
    return SkewIdeal(ctx, gens, basis)


def _witness_ideal(ctx: SkewContext, r: SkewElement, basis: HowellBasis) -> SkewIdeal:
    """The proper ideal of the oracle's witness r, kept in ``ctx.ideal_memo``."""
    ctx.ideal_memo[ctx.vec_of(r)] = basis
    return SkewIdeal(ctx, (r,), basis)


@dataclass(frozen=True)
class SkewSimplicity:
    """Simplicity verdict. value None means undetermined (witness search only).

    method is "full_sweep" or "witness_search" for a verdict found by closing
    elements, "certificate" for simplicity proved by ``certify_simple``.
    """

    value: bool | None
    method: str
    witness: SkewElement | None = None
    witness_ideal: SkewIdeal | None = None
    note: str = ""


def _scalar_units(char: int) -> list[int]:
    from math import gcd
    return [c for c in range(1, char) if gcd(c, char) == 1]


def is_simple(ctx: SkewContext) -> SkewSimplicity:
    """Simplicity oracle: R is simple iff every nonzero element generates R.

    Within the enumeration cap this sweeps all nonzero elements in canonical
    rank order, skipping unit-monomial multiples of elements already seen to
    generate everything; once the first element has generated R it tries
    ``certify_simple`` once and stops if that proves R simple. Above the cap,
    ``ctx.witness_search`` must be on (the default): structured generators
    and then the centre's obstruction are tried for a proper ideal, then the
    certificate, and the answer is undetermined when none decides. The
    certificate only ever proves simplicity, so a False verdict and its
    witness come from the sweep or the search alone.
    """
    if ctx.size <= ctx.caps.enumeration:
        return _sweep_prime(ctx)
    if not ctx.witness_search:
        raise CapacityError("enumeration", ctx.caps.enumeration, ctx.size,
                            "simplicity sweep (witness-search mode not enabled)")
    return _witness_search(ctx)


def _sweep_prime(ctx: SkewContext) -> SkewSimplicity:
    """The in-cap sweep, for prime and composite characteristic alike."""
    engine = ctx.engine
    size = ctx.size
    skip = bytearray(size)
    skip[0] = 1
    marks = np.frombuffer(skip, dtype=np.uint8)   # writes through to ``skip``
    certificate_tried = False
    # within the cap every rank fits in int64
    char, cols = ctx.char, ctx.rank_columns
    for i in range(1, size):
        if skip[i]:
            continue
        vec = np.array(rank_to_vec(i, char, cols))   # the coordinates of rank i
        basis = engine.closure([vec])
        if not basis.is_full:
            r = ctx.element_of_rank(i)
            return SkewSimplicity(False, "full_sweep", r, _witness_ideal(ctx, r, basis))
        if not certificate_tried:
            # rank 1 is always closed first; the certificate only ever proves
            # simplicity, so a proper ideal is still found by the sweep
            if certify_simple(ctx):
                return SkewSimplicity(True, "certificate")
            certificate_tried = True
        marks[vec_to_rank(_orbit_images(ctx, vec), char, cols)] = 1
    return SkewSimplicity(True, "full_sweep")


def _orbit_images(ctx: SkewContext, vec: np.ndarray) -> np.ndarray:
    """The coordinates of every c u_g r u_h, for vec = vec(r) and the units c
    of Z/char, as rows in the order g, h, c; each generates the ideal r
    generates. One batched product of r's blocks with the sigma stack and
    one gather into the slots (``SkewContext.unit_monomial_matrices``)."""
    slots, sigmas = ctx.unit_monomial_matrices
    products = (vec.reshape(ctx.group.order, ctx.ring.dim) @ sigmas) % ctx.char
    return products.ravel()[slots].reshape(-1, ctx.dim)


# ``bench/tracer.py`` wraps the sweep under both names
_sweep_generic = _sweep_prime


def _witness_search(ctx: SkewContext) -> SkewSimplicity:
    """Look for a proper ideal among structured generators and the centre,
    and claim simplicity only by ``certify_simple``.

    The structured candidates come first (the G-simplicity witness, a
    member of a proper invariant ideal, decided at any |A|; one for each
    kernel member; one for each nonzero member of a commuting component C_g,
    g != e), each family enumerated only once the families before it have
    decided nothing, and skipped when what it enumerates is above the cap.
    Then the centre: a simple ring has a field as its centre, and a nonzero
    central non-unit z (``ctx.center_obstruction``) generates a proper
    ideal, for zR = R would make z a unit of Z. Then the certificate.
    Undetermined when none decides.
    """
    engine = ctx.engine
    ring, group = ctx.ring, ctx.group
    budget = ctx.caps.witness_candidates
    tried = 0

    def check(r: SkewElement) -> SkewIdeal | None:
        basis = engine.closure([ctx.vec_of(r)])
        return None if basis.is_full else _witness_ideal(ctx, r, basis)

    def invariant_ideal() -> list[SkewElement]:
        # a proper action-stable ideal J of A gives the proper ideal of R
        # generated by any nonzero member of J
        g_simple = is_G_simple(ctx.action)
        return [] if g_simple.value else [ctx.monomial(g_simple.witness.payload, 0)]

    def kernel_members() -> list[SkewElement]:
        # augmentation-style witnesses
        return [ctx.one - ctx.unit_monomial(g) for g in range(1, group.order)
                if ctx.action.autos[g].is_identity()]

    def commuting_components() -> Iterator[SkewElement]:
        # every slot is checked against the cap before the first candidate,
        # which are then built one at a time as the search reaches them
        cap = ring.caps.enumeration
        for slot in ctx.centralizer_slots[1:]:
            if slot.size > cap:
                raise CapacityError("enumeration", cap, slot.size, "centralizer component")
        return (ctx.monomial(a, 0) - ctx.monomial(a, g) for g in range(1, group.order)
                for a in _slot_payloads(ctx, g) if a != ring.zero)

    # each family is enumerated only when the ones before it decided nothing
    for family in (invariant_ideal, kernel_members, commuting_components):
        if tried >= budget:
            break
        try:
            candidates = family()
        except CapacityError:
            continue  # too large to enumerate for this family
        for r in candidates:
            if tried >= budget:
                break
            if r.is_zero():
                continue
            tried += 1
            ideal = check(r)
            if ideal is not None:
                return SkewSimplicity(False, "witness_search", r, ideal)
    z = ctx.center_obstruction
    if z is not None:
        ideal = check(z)
        assert ideal is not None, "a central non-unit generated the whole ring"
        return SkewSimplicity(False, "witness_search", z, ideal)
    if certify_simple(ctx):
        return SkewSimplicity(True, "certificate")
    return SkewSimplicity(None, "witness_search", note=(
        f"no proper ideal found among {tried} structured generators, the centre "
        "is a field and the certificate's draws found no proof; "
        "simplicity undetermined"))


# Norton's criterion --------------------------------------------------------------

CERTIFICATE_DRAWS = 16          # elements theta of E tried
CERTIFICATE_TERMS = 3           # products L_a R_b summed into one theta
CERTIFICATE_SEED = 0


def certificate_draws(ctx: SkewContext) -> Iterator[np.ndarray]:
    """The seeded elements theta = sum_k L_{a_k} R_{b_k} of the enveloping
    algebra E, as matrices over F_char (x -> sum_k a_k x b_k).

    The coordinates are drawn in the order a_1, b_1, a_2, b_2, ...; theta is
    built one term at a time, so only one pair of dense matrices is held,
    each product of dim terms in ``closure.exact_dtype``."""
    p, dim = ctx.char, ctx.dim
    dtype = exact_dtype(dim, p)
    rng = random.Random(CERTIFICATE_SEED)
    for _ in range(CERTIFICATE_DRAWS):
        coords = [[rng.randrange(p) for _ in range(dim)] for _ in range(2 * CERTIFICATE_TERMS)]
        theta = np.zeros((dim, dim), dtype=np.int64)
        for a, b in zip(coords[0::2], coords[1::2]):
            left = left_multiplication(ctx, a).astype(dtype, copy=False)
            right = right_multiplication(ctx, b).astype(dtype, copy=False)
            theta += (left @ right).astype(np.int64, copy=False) % p
        yield theta % p


def certify_simple(ctx: SkewContext) -> bool:
    """True only when Norton's criterion proves R simple; False means "not
    certified" and never carries a witness.

    Two-sided ideals of R are the submodules of R under the algebra E
    generated by the left and right multiplications, so R is simple exactly
    when it is an irreducible E-module (Parker 1984, "The computer calculation
    of modular characters"; Holt & Rees 1994, "Testing modules for
    irreducibility"). At the first drawn theta in E with a one-dimensional
    kernel, spanned by v, with ker theta^T spanned by w, R is simple if both
    the ideal generated by v and the closure of w under the transposed
    operators are everything. For a proper nonzero ideal U either U meets
    ker theta and so holds v, or theta is injective on U, hence singular on
    R/U, and then w lies in the annihilator of U, which is stable under the
    transposed operators. R is never simple in composite characteristic.

    The centre of a simple ring is a field, so Z is tested first (the cached
    ``SkewContext.center_obstruction``) and a centre that is not a field
    ends the search before any theta is drawn. Every theta commutes with
    multiplication by Z, so ker theta and ker theta^T are Z-spaces and, when
    Z is a field of F_p-dimension k, their F_p-dimensions are multiples of k.
    A theta of nullity k then serves as well, with v and w the first kernel
    rows: its kernels are one-dimensional over Z, and every ideal and every
    annihilator is a Z-space, so the argument above holds word for word over
    Z. Z comes from its basis alone, so this holds at any |A|.

    Before the field test, a cheaper gate: a g != e acting trivially and
    commuting with ``group.generators`` makes u_g central, and then 1 - u_g
    is a nonzero central zero divisor, as (1 - u_g)(1 + u_g + ... +
    u_g^(m-1)) = 1 - u_g^m = 0 for the order m of g. So Z is not a field, the
    answer the field test would give, and ``criteria.field_obstruction`` is
    not run (commutative group rings F_q[G] with the trivial action, whose
    centre is all of R, end here).
    """
    p = ctx.char
    if not _is_prime(p):
        return False
    engine = ctx.engine   # refuses moduli whose int64 products can wrap
    if _has_central_unit_monomial(ctx):
        return False
    degree = _center_field_degree(ctx)
    if degree == 0:
        return False
    identity = np.eye(ctx.dim, dtype=np.int64)
    accepted = {1, degree}   # the nullities that certify
    for theta in certificate_draws(ctx):
        kernel = kernel_rows(p, identity, theta.T)   # theta e_i is column i
        if len(kernel) in accepted:
            w = kernel_rows(p, identity, theta)[0]
            return engine.closure(kernel[:1]).is_full and ctx.dual_engine.closure([w]).is_full
    return False


def _has_central_unit_monomial(ctx: SkewContext) -> bool:
    """Whether some u_g, g != e, is central: sigma_g = id and g commutes with
    a generating set of G."""
    group, autos = ctx.group, ctx.action.autos
    return any(all(group.mul_table[g][h] == group.mul_table[h][g] for h in group.generators)
               and autos[g].is_identity() for g in range(1, group.order))


def _center_field_degree(ctx: SkewContext) -> int:
    """The F_p-dimension of the centre Z when Z is a field, 0 when it is not."""
    return 0 if ctx.center_obstruction is not None else ctx.center_basis.rank


# constructive procedures -------------------------------------------------------

def _require_reduction_hypotheses(ctx: SkewContext) -> None:
    if not ctx.group.is_abelian:
        raise PreconditionError("G abelian", f"{ctx.group!r} is not abelian")
    verdict = is_G_simple(ctx.action)
    if not verdict.value:
        raise PreconditionError(
            "A G-simple", f"invariant ideal generated by "
            f"{ctx.ring.label(verdict.witness.payload)} is proper")


def support_reduce(ctx: SkewContext, r: SkewElement) -> SkewElement:
    """Inside the ideal of r, find r' with identity coefficient 1 and support
    no larger than r's.

    Mirrors the constructive argument: right-translate r so the identity
    coefficient is nonzero, then extract from the ideal an element supported
    inside Supp(r) whose identity coefficient is 1 (one exists because the
    identity-coefficient slice of such elements is an action-stable nonzero
    ideal of A, hence everything).
    """
    _require_reduction_hypotheses(ctx)
    if r.is_zero():
        raise DomainError("support reduction needs a nonzero element")
    # the support of r u_{h^-1}, for the least h in the support of r
    h_inv = ctx.group.inv_table[min(r.support)]
    target_support = frozenset(ctx.group.mul_table[g][h_inv] for g in r.support)
    ideal = skew_ideal_closure(ctx, [r])
    reduced = _find_support_slice(ctx, ideal, target_support)
    assert reduced is not None, "reduction element must exist under the hypotheses"
    assert ideal.contains(reduced)
    assert coeff_at_e(reduced).payload == ctx.ring.one
    assert len(reduced.support) <= len(r.support)
    return reduced


def _find_support_slice(ctx: SkewContext, ideal: SkewIdeal,
                        allowed_support: frozenset[int]) -> SkewElement | None:
    """First element of the ideal with support inside the allowed set and
    identity coefficient equal to 1, or None when there is none.

    It is c.B for the ideal's RREF rows B and the coefficients c solving
    c.B = t on the constrained columns (the blocks of e and of every g
    outside the allowed set, t being vec(1) on e's block and zero on the
    others): the solution zero on the system's free columns, as
    ``closure.solve`` returns it. A G-simple coefficient ring has prime
    characteristic, so the rows are over F_p and every pivot is 1.

    That solution is read off the rows. A row whose pivot lies in a
    constrained block has a 1 at that column, where every other row has a
    0, so the equation there fixes its coefficient to t's value at the
    pivot. The same 1 makes the row a pivot column of the system that
    takes part in no dependency among the others, so the free columns are
    those the remaining rows (pivots in allowed blocks) leave free on
    their own. What those rows must still produce is the residual, t minus
    the fixed rows' combination, on the constrained columns (zero at the
    fixed pivots). When it is zero their coefficients are zero, which is
    the solution zero on the free columns; otherwise ``closure.solve`` runs
    on those rows alone, and its answer, or None, is the whole system's.
    """
    p, d = ctx.char, ctx.ring.dim
    basis = ideal.basis
    if not basis.rank:
        return None
    B = basis.matrix()
    pivots = np.array(basis.pivots, dtype=np.intp)
    blocks = np.ones(ctx.group.order, dtype=bool)
    blocks[[g for g in allowed_support if g]] = False
    constrained = np.repeat(blocks, d)
    target = np.zeros(ctx.dim, dtype=np.int64)
    target[:d] = ctx.ring.to_vec(ctx.ring.one)
    fixed = constrained[pivots]
    coeffs = np.zeros(len(pivots), dtype=np.int64)
    coeffs[fixed] = target[pivots[fixed]]
    constrained[pivots[fixed]] = False   # the fixed pivots' equations hold
    residual = ((target - coeffs[fixed] @ B[fixed]) % p)[constrained]
    if residual.any():
        free = ~fixed
        sol = solve(p, B[free][:, constrained].T, residual)
        if sol is None:
            return None
        coeffs[free] = sol
    return ctx.element_of_vec((coeffs @ B) % p)


def smallest_member(ideal: SkewIdeal) -> SkewElement:
    """The nonzero member of smallest (support size, rank).

    Members are enumerated chunkwise as vectors and compared on their
    support size, then on ``SkewContext.rank_columns``, which orders like
    the rank. Within a chunk only the members of least support can win, so
    only those are sorted on the columns.
    """
    ctx = ideal.ctx
    order, cols = ctx.group.order, ctx.rank_columns
    best_key, best_vec = None, None
    for chunk in ideal.basis.iter_chunks():
        support = np.count_nonzero(chunk.reshape(len(chunk), order, -1).any(axis=2), axis=1)
        support[support == 0] = order + 1   # the zero member never wins
        least = support.min()
        candidates = chunk[support == least]
        i = np.lexsort(candidates[:, cols[::-1]].T)[0]
        key = (int(least), *candidates[i, cols].tolist())
        if best_key is None or key < best_key:
            best_key, best_vec = key, candidates[i]
    if best_key[0] > order:
        raise DomainError("the zero ideal has no nonzero member")
    return ctx.element_of_vec(best_vec)


def central_witness(ctx: SkewContext, ideal: SkewIdeal) -> SkewElement:
    """A central element of the ideal with identity coefficient 1.

    Takes the canonically smallest minimal-support member of the ideal,
    support-reduces it, and verifies membership, centrality and the identity
    coefficient before returning.
    """
    _require_reduction_hypotheses(ctx)
    if ideal.ctx is not ctx:
        raise DomainError("ideal belongs to a different context")
    if ideal.is_zero:
        raise DomainError("central witness needs a nonzero ideal")
    if ideal.size > ctx.caps.enumeration:
        raise CapacityError("enumeration", ctx.caps.enumeration, ideal.size,
                            "central witness search")
    reduced = support_reduce(ctx, smallest_member(ideal))
    assert ideal.contains(reduced)
    assert coeff_at_e(reduced).payload == ctx.ring.one
    assert is_central(reduced)
    return reduced


def is_central(r: SkewElement) -> bool:
    """Whether r commutes with a ring-generating set of R (the basis payloads
    b_t u_e and u_g, g in ``group.generators``), hence with all of R.

    One application of the generators' multiplications
    (``SkewContext.ideal_operator_matrices``) to vec(r): L_x vec(r) must
    equal R_x vec(r) for each generator x. This is the definition of
    central, not a membership test in ``center_basis``, so it checks the
    centre machinery independently.
    """
    ctx = r.ctx
    products = ctx.ideal_operator_matrices.apply(np.asarray(ctx.vec_of(r), dtype=np.int64))
    return not (products[0::2] != products[1::2]).any()
