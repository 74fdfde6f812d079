"""Arithmetic in the prime field F_p, including the quadratic character chi_2.

Elements are canonical least nonnegative residues; all reductions are eager,
so equality of elements is integer equality.  Only prime fields are supported.
"""

from __future__ import annotations

from .errors import CompositeModulus, EvenCharacteristic

_CHAR_TABLE_LIMIT = 1 << 16


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} of an integer n >= 1 by trial
    division, primes ascending; empty for n <= 1."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def int_mobius(n: int) -> int:
    """The integer Mobius function mu(n), n >= 1."""
    exps = factor_int(n).values()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


class FieldCtx:
    """Context object for F_p.

    Attributes
    ----------
    p : int
        The field size q (an odd prime or 2).
    odd : bool
        Whether p is odd; the quadratic character needs odd p.
    """

    __slots__ = ("p", "odd", "_chi2_table")

    def __init__(self, p: int):
        if factor_int(p) != {p: 1}:
            raise CompositeModulus(f"{p} is not prime")
        self.p = p
        self.odd = p % 2 == 1
        # small-p lookup tables; above the limit we fall back to pow()
        if self.odd and p <= _CHAR_TABLE_LIMIT:
            table = bytearray(p)
            for a in range(1, p):
                table[a * a % p] = 1
            self._chi2_table = bytes(table)
        else:
            self._chi2_table = None

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("FieldCtx", self.p))

    # element arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero element."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, self.p - 2, self.p)


def make_field(p: int) -> FieldCtx:
    """Build the context for F_p; raises CompositeModulus unless p is prime."""
    return FieldCtx(p)


def quadratic_character(ctx: FieldCtx, a: int) -> int:
    """The quadratic character chi_2(a) in {-1, 0, +1}, by Euler's criterion.

    Returns 0 iff a = 0, +1 iff a is a nonzero square mod p, -1 otherwise.
    Requires odd p.
    """
    if not ctx.odd:
        raise EvenCharacteristic("chi_2 is undefined in characteristic 2")
    a %= ctx.p
    if a == 0:
        return 0
    if ctx._chi2_table is not None:
        return 1 if ctx._chi2_table[a] else -1
    e = pow(a, (ctx.p - 1) // 2, ctx.p)
    return 1 if e == 1 else -1
