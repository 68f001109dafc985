"""Table-backed arithmetic for small Galois fields GF(p^m).

Elements are integer codes in 0..q-1; the base-p digits of a code are the
coefficients of the residue polynomial, least significant digit first. The
modulus is the lexicographically smallest monic irreducible of degree m, so a
given q always yields the same tables.
"""

from __future__ import annotations

from functools import lru_cache

MAX_FIELD_ORDER = 256


def prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, m) with p prime and q = p^m, or raise ValueError."""
    if q < 2:
        raise ValueError(f"field order must be at least 2, got {q}")
    p = None
    for cand in range(2, q + 1):
        if q % cand == 0:
            p = cand
            break
    assert p is not None
    m = 0
    rest = q
    while rest % p == 0:
        rest //= p
        m += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


def _digits(code: int, p: int, m: int) -> tuple[int, ...]:
    out = []
    for _ in range(m):
        out.append(code % p)
        code //= p
    return tuple(out)


def _code(digits: tuple[int, ...], p: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem(poly: list[int], modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    # modulus is monic of degree m, coefficients little-endian, length m+1
    m = len(modulus) - 1
    work = list(poly)
    for i in range(len(work) - 1, m - 1, -1):
        c = work[i]
        if c:
            work[i] = 0
            for j in range(m):
                work[i - m + j] = (work[i - m + j] - c * modulus[j]) % p
    work = work[:m] + [0] * max(0, m - len(work))
    return tuple(work[:m])


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    m = len(modulus) - 1
    # trial division by all monic polynomials of degree 1..m//2
    for deg in range(1, m // 2 + 1):
        for code in range(p**deg):
            divisor = _digits(code, p, deg) + (1,)
            if _poly_divides(divisor, modulus, p):
                return False
    return True


def _poly_divides(divisor: tuple[int, ...], poly: tuple[int, ...], p: int) -> bool:
    work = list(poly)
    d = len(divisor) - 1
    inv_lead = pow(divisor[-1], -1, p)
    for i in range(len(work) - 1, d - 1, -1):
        c = work[i]
        if c:
            factor = (c * inv_lead) % p
            for j in range(d + 1):
                work[i - d + j] = (work[i - d + j] - factor * divisor[j]) % p
    return all(c == 0 for c in work)


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        return (0, 1)
    for code in range(p**m):
        cand = _digits(code, p, m) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError(f"no irreducible of degree {m} over F_{p}")


class GaloisField:
    """GF(q) over integer element codes: mul/inv lookup tables, and addition
    and negation on the base-p digits."""

    def __init__(self, q: int) -> None:
        if q > MAX_FIELD_ORDER:
            raise ValueError(f"field order {q} above supported maximum {MAX_FIELD_ORDER}")
        p, m = prime_power(q)
        self.q = q
        self.p = p
        self.degree = m
        self.modulus = _smallest_irreducible(p, m)
        # the base-p digits of each code, and the code of each digit tuple
        self.digit_table = tuple(_digits(c, p, m) for c in range(q))
        self.code_of = {d: c for c, d in enumerate(self.digit_table)}
        self._mul = self._build_mul_table()
        self._inv = self._build_inverses()

    def _build_mul_table(self):
        q, p = self.q, self.p
        mul = [[0] * q for _ in range(q)]
        digit = self.digit_table
        for a in range(q):
            for b in range(a, q):
                prod = _poly_rem(_poly_mul(digit[a], digit[b], p), self.modulus, p)
                mul[a][b] = mul[b][a] = _code(prod, p)
        return tuple(map(tuple, mul))

    def _build_inverses(self):
        inv = [None] * self.q
        for a in range(1, self.q):
            for b in range(1, self.q):
                if self._mul[a][b] == 1:
                    inv[a] = b
                    break
            if inv[a] is None:
                raise AssertionError(f"GF({self.q}) element {a} has no inverse; bad modulus")
        return tuple(inv)

    def add(self, a: int, b: int) -> int:
        digit = self.digit_table
        return _code(tuple((x + y) % self.p for x, y in zip(digit[a], digit[b])), self.p)

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return _code(tuple((-d) % self.p for d in _digits(a, self.p, self.degree)), self.p)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._inv[a]

    def to_digits(self, a: int) -> tuple[int, ...]:
        """Additive F_p coordinates of an element code."""
        return self.digit_table[a]

    def from_digits(self, digits) -> int:
        return self.code_of[tuple(d % self.p for d in digits)]

    def __repr__(self) -> str:
        return f"GaloisField({self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> GaloisField:
    return GaloisField(q)
