"""Polynomials over F_q: ring arithmetic, gcd, discriminant, factorization,
and the arithmetic functions mu, Lambda, Lambda_2, d_k and the cycle type.

Coefficients are stored lowest degree first with no trailing zeros; the zero
polynomial has empty coefficients and degree -1.  These are the scalar
reference implementations; the vectorized engine in batch.py is cross-checked
against them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import (
    BothZero,
    ConstantPolynomial,
    DivisionByZeroPoly,
    EvenCharacteristic,
    FieldMismatch,
    InvalidPartition,
    ZeroPolynomial,
)
from .field import FieldCtx, quadratic_character


class Poly:
    """Immutable polynomial over a prime field.

    Parameters
    ----------
    ctx : FieldCtx
        The coefficient field.
    coeffs : sequence of int
        Coefficients, lowest degree first.  Reduced mod p and stripped of
        trailing zeros on construction.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        p = ctx.p
        c = [int(a) % p for a in coeffs]
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # constructors -------------------------------------------------------

    @staticmethod
    def zero(ctx: FieldCtx) -> "Poly":
        return Poly(ctx, ())

    @staticmethod
    def one(ctx: FieldCtx) -> "Poly":
        return Poly(ctx, (1,))

    @staticmethod
    def x(ctx: FieldCtx) -> "Poly":
        return Poly(ctx, (0, 1))

    @staticmethod
    def constant(ctx: FieldCtx, a: int) -> "Poly":
        return Poly(ctx, (a,))

    @staticmethod
    def monomial(ctx: FieldCtx, n: int, c: int = 1) -> "Poly":
        return Poly(ctx, (0,) * n + (c,))

    # basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, j: int) -> int:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

    def norm(self) -> int:
        """|f| = q^{deg f} for nonzero f."""
        if self.is_zero():
            raise ZeroPolynomial("the zero polynomial has no norm")
        return self.ctx.p ** self.degree

    # arithmetic ---------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.ctx.p != other.ctx.p:
            raise FieldMismatch("operands over different fields")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return Poly(self.ctx, out)

    def __neg__(self):
        return Poly(self.ctx, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(self.ctx)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Poly(self.ctx, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, int):
            return Poly.constant(self.ctx, other)
        return NotImplemented

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent")
        result = Poly.one(self.ctx)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        return divrem(self, self._coerce(other))

    def __floordiv__(self, other):
        return divrem(self, self._coerce(other))[0]

    def __mod__(self, other):
        return divrem(self, self._coerce(other))[1]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and other.ctx.p == self.ctx.p
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.ctx.p, self.coeffs))

    def __lt__(self, other):
        """Canonical total order: by degree, then lexicographic on coefficients
        from the top down."""
        self._check(other)
        if self.degree != other.degree:
            return self.degree < other.degree
        return self.coeffs[::-1] < other.coeffs[::-1]

    # derived forms ------------------------------------------------------

    def monic(self) -> "Poly":
        """f scaled by the inverse of its leading coefficient."""
        if self.is_zero():
            raise ZeroPolynomial("the zero polynomial has no monic form")
        if self.coeffs[-1] == 1:
            return self
        inv = self.ctx.inv(self.coeffs[-1])
        return Poly(self.ctx, [a * inv for a in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly(self.ctx, [j * a for j, a in enumerate(self.coeffs)][1:])

    def evaluate(self, a: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * a + c) % self.ctx.p
        return acc

    def __repr__(self):
        return f"Poly(F{self.ctx.p}, [{poly_to_string(self)}])"


# text format --------------------------------------------------------------


def poly_from_string(ctx: FieldCtx, s: str) -> Poly:
    """Parse the textual format: decimal coefficients, lowest degree first,
    comma-separated ("1,0,1" = 1 + x^2)."""
    parts = s.strip().split(",")
    return Poly(ctx, [int(t) for t in parts])


def poly_to_string(f: Poly) -> str:
    """Inverse of poly_from_string; the zero polynomial prints as "0"."""
    if f.is_zero():
        return "0"
    return ",".join(str(c) for c in f.coeffs)


# division, gcd -------------------------------------------------------------


def divrem(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with deg r < deg g."""
    f._check(g)
    if g.is_zero():
        raise DivisionByZeroPoly("division by the zero polynomial")
    p = f.ctx.p
    dg = g.degree
    if f.degree < dg:
        return Poly.zero(f.ctx), f
    rem = list(f.coeffs)
    inv_lc = f.ctx.inv(g.coeffs[-1])
    quot = [0] * (len(rem) - dg)
    gl = g.coeffs
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i] % p
        if c:
            c = c * inv_lc % p
            quot[i - dg] = c
            for j in range(dg + 1):
                rem[i - dg + j] -= c * gl[j]
            rem[i] = 0
    return Poly(f.ctx, quot), Poly(f.ctx, rem[:dg])


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    f._check(g)
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


def powmod(base: Poly, e: int, mod: Poly) -> Poly:
    """base^e mod `mod` by square and multiply."""
    result = Poly.one(base.ctx)
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


# resultant and discriminant -------------------------------------------------


def _resultant(f: Poly, g: Poly) -> int:
    """Res(f, g) at actual degrees, by the Euclidean recursion."""
    p = f.ctx.p
    sign = 1
    acc = 1
    while True:
        if f.is_zero() or g.is_zero():
            # Res involving the zero polynomial vanishes unless the other
            # operand is a nonzero constant (empty product).
            other = g if f.is_zero() else f
            return acc * sign % p if other.degree == 0 and not other.is_zero() else 0
        if g.degree == 0:
            return acc * sign * pow(g.coeffs[0], f.degree, p) % p
        if f.degree == 0:
            return acc * sign * pow(f.coeffs[0], g.degree, p) % p
        r = f % g
        dr = r.degree if not r.is_zero() else -1
        if dr < 0:
            return 0
        if (f.degree * g.degree) % 2 == 1:
            sign = -sign
        acc = acc * pow(g.lc(), f.degree - dr, p) % p
        f, g = g, r


def discriminant(f: Poly) -> int:
    """disc(f) = (-1)^{n(n-1)/2} Res(f, f') / lc(f).

    Res is taken at declared degree n-1 for f', so the value scales as
    disc(cf) = c^{2n-2} disc(f).
    """
    n = f.degree
    if n < 1:
        raise ConstantPolynomial("discriminant needs deg f >= 1")
    p = f.ctx.p
    d = f.derivative()
    if d.is_zero():
        return 0
    res = _resultant(f, d)
    # pad Res to declared degree n-1 of the derivative
    res = res * pow(f.lc(), (n - 1) - d.degree, p) % p
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res * f.ctx.inv(f.lc()) % p


# factorization --------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """unit * prod P_i^{e_i} with monic irreducible P_i in canonical order."""

    unit: int
    factors: tuple[tuple[Poly, int], ...]

    def expand(self, ctx: FieldCtx) -> Poly:
        out = Poly.constant(ctx, self.unit)
        for P, e in self.factors:
            out = out * P**e
        return out


@dataclass(frozen=True)
class CycleType:
    """Counts lambda_1..lambda_n of irreducible factors by degree, with
    multiplicity; sum of j*lambda_j = n."""

    n: int
    lam: tuple[int, ...]

    def __post_init__(self):
        if sum(j * c for j, c in enumerate(self.lam, start=1)) != self.n:
            raise InvalidPartition("lambda is not a partition of n")


def _pth_root(f: Poly) -> Poly:
    """For f = g(x^p) over the prime field, return g (coefficient p-th roots
    are the identity on F_p)."""
    p = f.ctx.p
    return Poly(f.ctx, f.coeffs[::p])


def _squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Monic f -> [(g, m)] with f = prod g^m, the g squarefree and coprime."""
    p = f.ctx.p
    out: list[tuple[Poly, int]] = []
    n = 1
    while f.degree > 0:
        d = f.derivative()
        if d.is_zero():
            f = _pth_root(f)
            n *= p
            continue
        g = gcd(f, d)
        h = f // g
        i = 1
        while not h.is_one():
            G = gcd(g, h)
            H = h // G
            if H.degree > 0:
                out.append((H, i * n))
            g, h = g // G, G
            i += 1
        f = g
    return out


def _distinct_degree(f: Poly) -> list[tuple[Poly, int]]:
    """Monic squarefree f -> [(product of degree-d factors, d)]."""
    q = f.ctx.p
    out = []
    g = Poly.x(f.ctx)
    d = 0
    while f.degree >= 2 * (d + 1):
        d += 1
        g = powmod(g, q, f)
        h = gcd(f, g - Poly.x(f.ctx))
        if h.degree > 0:
            out.append((h, d))
            f = f // h
            g = g % f
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _equal_degree_split(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Split a monic product of distinct degree-d irreducibles."""
    ctx = f.ctx
    q = ctx.p
    n = f.degree
    if n == d:
        return [f]
    while True:
        r = Poly(ctx, [rng.randrange(q) for _ in range(n)])
        if r.degree < 1:
            continue
        g = gcd(f, r)
        if 0 < g.degree < n:
            break
        if q % 2 == 1:
            h = powmod(r, (q**d - 1) // 2, f) - 1
        else:
            # trace map over F_{2^d}
            t = r
            h = r
            for _ in range(d - 1):
                t = (t * t) % f
                h = (h + t) % f
        g = gcd(f, h)
        if 0 < g.degree < n:
            break
    return _equal_degree_split(g, d, rng) + _equal_degree_split(f // g, d, rng)


def factor(f: Poly, seed: int = 0) -> Factorization:
    """Canonical factorization: squarefree decomposition, distinct-degree
    split, then seeded equal-degree splitting.  Factors are sorted by degree
    then lexicographically on coefficients (top down)."""
    if f.is_zero():
        raise ZeroPolynomial("cannot factor 0")
    unit = f.lc()
    f = f.monic()
    rng = random.Random(seed)
    found: dict[Poly, int] = {}
    for g, mult in _squarefree_decomposition(f):
        for h, d in _distinct_degree(g):
            for P in _equal_degree_split(h, d, rng):
                found[P] = found.get(P, 0) + mult
    ordered = sorted(found.items(), key=lambda t: (t[0].degree, t[0].coeffs[::-1]))
    return Factorization(unit=unit, factors=tuple(ordered))


def is_irreducible(f: Poly) -> bool:
    """Irreducibility of monic(f) by the x^{q^d}-mod-f criterion; independent
    of factor()."""
    if f.is_zero():
        raise ZeroPolynomial("0 is not a candidate")
    f = f.monic()
    n = f.degree
    if n == 0:
        return False
    if n == 1:
        return True
    q = f.ctx.p
    x = Poly.x(f.ctx)
    g = x
    for _ in range(n // 2):
        g = powmod(g, q, f)
        if gcd(f, g - x).degree > 0:
            return False
    return True


# arithmetic functions --------------------------------------------------------


def cycle_type(f: Poly, seed: int = 0) -> CycleType:
    """lambda(f): counts of irreducible factors by degree, with multiplicity."""
    if f.degree < 1:
        if f.is_zero():
            raise ZeroPolynomial("cycle type of 0 is undefined")
        raise ConstantPolynomial("cycle type needs deg f >= 1")
    n = f.degree
    lam = [0] * n
    for P, e in factor(f, seed=seed).factors:
        lam[P.degree - 1] += e
    return CycleType(n=n, lam=tuple(lam))


def mobius(f: Poly, backend: str = "factorization") -> int:
    """mu(f): (-1)^r on products of r distinct irreducibles, 0 on squareful f.

    backend "pellet" computes (-1)^{deg f} chi_2(disc f) instead, which needs
    odd q and deg f >= 1.
    """
    if f.is_zero():
        raise ZeroPolynomial("mu(0) is undefined")
    if backend == "pellet":
        if not f.ctx.odd:
            raise EvenCharacteristic("Pellet's formula needs odd q")
        if f.degree < 1:
            raise ConstantPolynomial("Pellet's formula needs deg f >= 1")
        chi = quadratic_character(f.ctx, discriminant(f.monic()))
        return chi if f.degree % 2 == 0 else -chi
    if backend != "factorization":
        raise ValueError(f"unknown backend {backend!r}")
    fac = factor(f)
    if any(e > 1 for _, e in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def von_mangoldt(f: Poly) -> int:
    """Lambda(f) = deg P if monic(f) = P^k, else 0."""
    if f.is_zero():
        raise ZeroPolynomial("Lambda(0) is undefined")
    if f.degree < 1:
        return 0
    fac = factor(f.monic())
    if len(fac.factors) == 1:
        return fac.factors[0][0].degree
    return 0


def divisor_pairs(f: Poly):
    """Yield (d, f/d) over the monic divisors d of monic(f)."""
    f = f.monic()
    fac = factor(f)
    primes = [P for P, _ in fac.factors]
    exps = [e for _, e in fac.factors]
    ctx = f.ctx

    def rec(i: int, d: Poly):
        if i == len(primes):
            yield d
            return
        t = d
        for _ in range(exps[i] + 1):
            yield from rec(i + 1, t)
            t = t * primes[i]

    for d in rec(0, Poly.one(ctx)):
        yield d, f // d


def von_mangoldt2(f: Poly) -> int:
    """Lambda_2 = Lambda*Lambda + deg*Lambda, by convolution over divisors of
    monic(f); agrees with mu*deg^2."""
    if f.is_zero():
        raise ZeroPolynomial("Lambda_2(0) is undefined")
    f = f.monic()
    if f.degree < 1:
        return 0
    conv = sum(von_mangoldt(d) * von_mangoldt(e) for d, e in divisor_pairs(f)
               if d.degree >= 1 and e.degree >= 1)
    return conv + f.degree * von_mangoldt(f)


def von_mangoldt2_mu_deg2(f: Poly) -> int:
    """The mu*deg^2 expression for Lambda_2 (cross-check route)."""
    f = f.monic()
    return sum(mobius(d) * e.degree**2 for d, e in divisor_pairs(f))


def divisor_k(f: Poly, k: int) -> int:
    """d_k(f): ordered k-tuples of monic polynomials with product monic(f)."""
    if f.is_zero():
        raise ZeroPolynomial("d_k(0) is undefined")
    if k < 1:
        raise ValueError("k >= 1 required")
    out = 1
    for _, e in factor(f.monic()).factors:
        out *= math.comb(e + k - 1, k - 1)
    return out
