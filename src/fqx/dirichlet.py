"""Dirichlet characters on F_q[x]/(Q), their L-functions, and the
unitarized Frobenius eigenangles.

Supported modulus shapes: Q = x^m and squarefree Q (the shapes the
short-interval and arithmetic-progression theorems use).  The unit group is
represented by a computed basis of generators with orders d_i and a discrete
log table, so characters are exponent tuples and every flag (even,
primitive) is an exact integer test.

The basis construction is candidate-then-verify: for x^m the candidate
1-unit generators are 1 + x^j (p not dividing j) with orders p^ceil(log_p(m/j)),
for squarefree Q the CRT factors are cyclic with seeded generator search;
the discrete-log enumeration then proves the candidate is a basis (any
collision raises; the orders multiply to the group order by construction).
The enumeration multiplies by one fixed generator at a time, with work only
for its nonzero terms (`_mul_fixed`).

Character sums M(n; w chi) = sum over M_n of w(f) chi(f) have one route:
`weighted_character_sums` bins the weights over M_n by discrete log and
takes one Fourier transform over the exponent lattice, which gives the sum
for every character at once.  The lattice is cached on the group per
(n, weight, k), and `m_sum` reads one entry of it.

L-polynomials are computed per unit group, not per character: each group
keeps one lazily filled L-table per mode ("naive", "dft").  The table fills
one block of consecutive characters (flat `np.ndindex` order of their
exponent tuples) at a time, `max(1, _LTABLE_CELLS // q^(deg Q - 1))`
characters per block, so the transients of one block (the characters x
residues phase matrix and its roots of unity) stay near 1.5 MiB whatever
the group size.  A block's polynomials are grouped by degree and each group's
inverse roots come from one call of `rmt._poly_roots`, a batched
Durand-Kerner iteration with per-row convergence, checked row by row by
rebuilding the coefficients from the roots; the Katz spectra use the same
root finder.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import batch as _batch
from . import rmt as _rmt
from .errors import (
    BudgetExceeded,
    NotEvenPrimitive,
    PreconditionError,
    RootFindingDidNotConverge,
    TrivialCharacter,
    UnsupportedModulusShape,
)
from .field import FieldCtx, factor_int, make_field
from .polyring import Poly, factor, powmod

ROOT_TOL = 1e-6
COEFF_TOL = 1e-9
# characters * residues per L-table block: about 1.5 MiB of naive-mode
# transients (int64 phases and their complex roots of unity).  Four times
# as many cells run no faster, and the heap they leave behind raised the
# peak RSS of the spectra benchmark by several MiB.
_LTABLE_CELLS = 1 << 16


def _primitive_root(p: int) -> int:
    if p == 2:
        return 1
    primes = list(factor_int(p - 1))
    for c in range(2, p):
        if all(pow(c, (p - 1) // ell, p) != 1 for ell in primes):
            return c
    raise RuntimeError("unreachable for prime p")


class DirichletGroup:
    """Unit group of F_q[x]/(Q) with a verified generator basis and a
    discrete-log table.

    Attributes
    ----------
    Q : monic Poly modulus
    shape : "x_power" or "squarefree"
    orders : tuple of basis orders d_i, product = phi
    pos : int64 array over residue indices; enumeration position of each
        unit in mixed-radix order (basis 0 fastest), -1 for non-units
    digits : int32 array (q^m, r) of exponent tuples (rows of non-units
        are zero and must be masked via pos)

    Cached on first use: the coefficient lattices of `dft_tables()`, the
    (even, primitive) flag lattices of `character_flags()`, the M(n; w chi)
    lattices of `weighted_character_sums` per (n, weight, k), and one L-table
    per mode, filled one block of `max(1, _LTABLE_CELLS // q^(m-1))`
    characters at a time by `l_polynomial`; a block holds the coefficient,
    inverse-root and angle rows of its characters, and filling it takes
    about 1.5 MiB of transients.
    """

    def __init__(self, Q: Poly, shape: str, gens: list[Poly], orders: list[int],
                 scalar_root: int):
        ctx = Q.ctx
        p = ctx.p
        m = Q.degree
        self.Q = Q
        self.ctx = ctx
        self.shape = shape
        self.generators = tuple(gens)
        self.orders = tuple(orders)
        self.phi = math.prod(orders) if orders else 1
        self.L = math.lcm(*orders) if orders else 1
        self.scalar_root = scalar_root
        self.q_low = np.array(Q.coeffs[:m], dtype=np.int64)

        # enumerate the subgroup generated by the candidate basis
        indices = np.array([1], dtype=np.int64)  # residue index of 1
        for G, d in zip(gens, orders):
            blocks = [indices]
            cur = np.ascontiguousarray(_batch.index_rows(indices, m, p).T)
            for _ in range(d - 1):
                cur = _mul_fixed(cur, G.coeffs, self.q_low, p)
                blocks.append(_batch.block_index(cur.T, p))
            indices = np.concatenate(blocks)
        # indices holds prod(orders) = phi entries; a collision leaves some
        # position overwritten by a later one
        enum = np.arange(self.phi, dtype=np.int64)
        pos = np.full(p**m, -1, dtype=np.int64)
        pos[indices] = enum
        if not np.array_equal(pos[indices], enum):
            raise UnsupportedModulusShape(
                "candidate basis failed verification (collision)")
        self.pos = pos

        r = len(orders)
        digits = np.zeros((p**m, max(r, 1)), dtype=np.int32)
        val = np.where(pos >= 0, pos, 0)
        for i, d in enumerate(orders):
            val, digits[:, i] = np.divmod(val, d)
        self.digits = digits[:, :r] if r else digits[:, :0]

        self.exp_table = np.exp(2j * np.pi * np.arange(self.L) / self.L)
        self.scalar_digits = tuple(int(v) for v in self.digits[scalar_root]) if r else ()
        self._dft = None
        self._kernel_digits = None
        self._flags = None
        self._sums: dict[tuple[int, str, int], np.ndarray] = {}
        self._l_block_size = max(1, _LTABLE_CELLS // p ** (m - 1))
        self._l_tables: dict[str, dict[int, _LBlock]] = {"naive": {}, "dft": {}}

    def __repr__(self):
        return (f"DirichletGroup(Q={self.Q!r}, shape={self.shape}, "
                f"orders={self.orders}, phi={self.phi})")

    def unit_index(self, f: Poly) -> int:
        r = f % self.Q
        idx = 0
        for c in reversed(r.coeffs):
            idx = idx * self.ctx.p + c
        return idx

    def weight_vector(self, exps) -> np.ndarray:
        return np.array([c * (self.L // d) for c, d in zip(exps, self.orders)],
                        dtype=np.int64)

    def kernel_digits(self) -> np.ndarray:
        """Digit rows of the nontrivial kernel of reduction mod Q/P, per
        prime P | Q; for x^m these are the units 1 + a x^{m-1}."""
        if self._kernel_digits is None:
            p = self.ctx.p
            m = self.Q.degree
            if self.shape == "x_power" and m >= 2:
                ker = np.array([1 + a * p ** (m - 1) for a in range(1, p)],
                               dtype=np.int64)
                self._kernel_digits = self.digits[ker].astype(np.int64)
            else:
                self._kernel_digits = None
        return self._kernel_digits

    def dft_tables(self):
        """Coefficient lattices: tables[n][c] = conj(c_n(chi_c)) for all
        characters at once, n = 0..deg Q - 1."""
        if self._dft is None:
            self._dft = [_character_fft(self, n, None) for n in range(self.Q.degree)]
        return self._dft

    def character_flags(self):
        """(even, primitive) boolean lattices over all exponent tuples."""
        if self._flags is None:
            self._flags = _lattice_flags(self)
        return self._flags


def _mul_fixed(cur: np.ndarray, g, q_low: np.ndarray, p: int) -> np.ndarray:
    """Coefficient-major residues cur (m, count) times the fixed polynomial
    g (coefficients lowest first, deg g < m) mod x^m + q_low.  Only nonzero
    terms cost work: one scaled, shifted add per term of g and one fold per
    term of q_low, which suits the generators (a constant, 1 + x^j, a CRT
    lift) and x^m, whose q_low is zero."""
    m, count = cur.shape
    acc = np.zeros((m + len(g) - 1, count), dtype=np.int64)
    for j, c in enumerate(g):
        if c:
            acc[j : j + m] += c * cur
    fold = np.flatnonzero(q_low)
    for k in range(acc.shape[0] - 1, m - 1, -1):  # x^k = -x^(k-m) q_low
        t = acc[k] - acc[k] // p * p
        for i in fold:
            acc[k - m + i] -= q_low[i] * t
    out = acc[:m]
    return out - out // p * p


def build_unit_group(Q: Poly, seed: int = 0, budget: int = 10**8) -> DirichletGroup:
    """Unit group mod Q for Q = x^m or squarefree Q.

    The residue table has q^deg Q entries; budget bounds that size.
    """
    if Q.degree < 1:
        raise PreconditionError("deg Q >= 1 required")
    Q = Q.monic()
    ctx = Q.ctx
    p = ctx.p
    m = Q.degree
    if p**m > budget:
        raise BudgetExceeded(f"residue table of size {p**m} exceeds budget {budget}")
    x_power = all(c == 0 for c in Q.coeffs[:m])

    gens: list[Poly] = []
    orders: list[int] = []
    if x_power:
        if p > 2:
            c = _primitive_root(p)
            gens.append(Poly.constant(ctx, c))
            orders.append(p - 1)
            scalar_root = c
        else:
            scalar_root = 1
        for j in range(1, m):
            if j % p == 0:
                continue
            t = 1
            while j * p**t < m:
                t += 1
            gens.append(Poly(ctx, [1] + [0] * (j - 1) + [1]))
            orders.append(p**t)
        return DirichletGroup(Q, "x_power", gens, orders, scalar_root)

    fac = factor(Q, seed=seed)
    if any(e > 1 for _, e in fac.factors):
        raise UnsupportedModulusShape(
            "supported moduli are x^m and squarefree Q")
    rng = random.Random(seed)
    primes = [P for P, _ in fac.factors]
    for P in primes:
        d = P.degree
        order = p**d - 1
        ell_list = list(factor_int(order))
        g = None
        if order == 1:
            g = Poly.one(ctx)
        while g is None:
            cand = Poly(ctx, [rng.randrange(p) for _ in range(d)])
            if cand.is_zero():
                continue
            if all(powmod(cand, order // ell, P) != Poly.one(ctx) for ell in ell_list):
                g = cand
        # CRT lift: congruent to g mod P, to 1 mod Q/P
        R = Q // P
        e = (R * _poly_inverse_mod(R, P)) % Q
        lift = (Poly.one(ctx) + (g - Poly.one(ctx)) * e) % Q
        gens.append(lift)
        orders.append(order)
    scalar_root = _primitive_root(p)
    return DirichletGroup(Q, "squarefree", gens, orders, scalar_root)


def _poly_inverse_mod(f: Poly, g: Poly) -> Poly:
    """f^{-1} mod g by the extended Euclidean algorithm."""
    ctx = f.ctx
    r0, r1 = g, f % g
    s0, s1 = Poly.zero(ctx), Poly.one(ctx)
    while not r1.is_zero():
        qt, rr = divmod(r0, r1)
        r0, r1 = r1, rr
        s0, s1 = s1, s0 - qt * s1
    if r0.degree != 0:
        raise PreconditionError("not invertible")
    return s0 * ctx.inv(r0.coeffs[0])


@dataclass(frozen=True)
class DirichletCharacter:
    """chi(g_i) = exp(2 pi i c_i / d_i) on the group basis."""

    group: DirichletGroup
    exps: tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.exps)

    def phase_int(self, residue_index: int):
        """Exponent t with chi = exp(2 pi i t / L) at the residue, or None
        on non-units.  Exact integer arithmetic."""
        g = self.group
        if g.pos[residue_index] < 0:
            return None
        t = 0
        for c, d, e in zip(self.exps, g.orders, g.digits[residue_index]):
            t += c * (g.L // d) * int(e)
        return t % g.L

    @property
    def is_even(self) -> bool:
        return self.phase_int(self.group.scalar_root) == 0

    @property
    def is_primitive(self) -> bool:
        g = self.group
        if g.shape == "x_power":
            if g.Q.degree == 1:
                return not self.is_trivial
            ker = g.kernel_digits()
            w = self.group.weight_vector(self.exps)
            t = (ker @ w) % g.L
            return bool((t != 0).any())
        return all(c != 0 for c in self.exps)

    def label(self) -> str:
        return ":".join(str(c) for c in self.exps) if self.exps else "0"


def trivial_character(group: DirichletGroup) -> DirichletCharacter:
    return DirichletCharacter(group, (0,) * len(group.orders))


def list_characters(group: DirichletGroup, filter: str = "all"):
    """All characters, optionally filtered: all | even | primitive |
    even_primitive."""
    if filter not in ("all", "even", "primitive", "even_primitive"):
        raise ValueError(f"unknown filter {filter!r}")
    for exps in np.ndindex(*group.orders):
        chi = DirichletCharacter(group, tuple(int(c) for c in exps))
        if filter in ("even", "even_primitive") and not chi.is_even:
            continue
        if filter in ("primitive", "even_primitive") and not chi.is_primitive:
            continue
        yield chi


def char_eval(chi: DirichletCharacter, f: Poly) -> complex:
    """chi(f): zero on non-units, else the exact root of unity."""
    t = chi.phase_int(chi.group.unit_index(f))
    if t is None:
        return 0j
    return complex(chi.group.exp_table[t])


# L-functions -------------------------------------------------------------------


@dataclass(frozen=True)
class LPolynomial:
    """L(u, chi) = sum c_j u^j with c_0 = 1 and deg <= deg Q - 1.

    inverse_roots are the gamma_j with L(u) = prod (1 - gamma_j u); angles
    are the unitarized Frobenius eigenphases (primitive chi only, None
    otherwise), with the trivial zero at u = 1 removed first for even chi.
    """

    character: DirichletCharacter
    coeffs: np.ndarray
    inverse_roots: np.ndarray
    angles: np.ndarray | None

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def value(self, u: complex) -> complex:
        return complex(np.polyval(self.coeffs[::-1], u))


def _inverse_roots(rows: np.ndarray) -> np.ndarray:
    """Inverse roots of L(u) = sum c_j u^j for coefficient rows of one
    degree D >= 1: the roots of the reversed polynomials c_0 z^D + .. + c_D,
    from the batched root finder.  Each row is checked by rebuilding its
    coefficients from its roots: the backward error must be at most
    ROOT_TOL times the row's largest coefficient, a bound that also holds at
    repeated roots, where no route gets the roots themselves past about
    1e-8."""
    roots = _rmt._poly_roots(rows)
    rebuilt = np.zeros(rows.shape, dtype=complex)
    rebuilt[:, 0] = rows[:, 0]
    for k in range(roots.shape[1]):
        rebuilt[:, 1 : k + 2] -= roots[:, k : k + 1] * rebuilt[:, : k + 1]
    err = np.abs(rebuilt - rows).max(axis=1)
    if not (err <= ROOT_TOL * np.abs(rows).max(axis=1)).all():
        raise RootFindingDidNotConverge(
            "inverse roots do not rebuild their L-polynomial coefficients")
    return roots


def _unitary_angles(roots: np.ndarray, p: int) -> np.ndarray:
    """Sorted eigenphases in [0, 2 pi) of the rows of roots / sqrt(p)."""
    return np.sort(_rmt._phases(roots / math.sqrt(p)), axis=1)


class _LBlock(NamedTuple):
    """L-polynomials of one block of characters, one row each; the roots
    and angles rows are padded past their lengths (degree, n_angles), and
    n_angles is -1 where the character is imprimitive or trivial."""

    coeffs: np.ndarray
    degree: np.ndarray
    inverse_roots: np.ndarray
    angles: np.ndarray
    n_angles: np.ndarray


def _l_block(group: DirichletGroup, mode: str, start: int, stop: int) -> _LBlock:
    """L-polynomials of the characters at flat exponent-lattice positions
    [start, stop).

    mode "naive": c_n is the sum over the monic units f of degree n < deg Q
    (their own residues) of chi(f), the phases of the whole block coming
    from one product of weight vectors and digit rows.  mode "dft": c_n is
    read out of the cached group-wide Fourier transform.
    """
    p = group.ctx.p
    m = group.Q.degree
    exps = np.stack(np.unravel_index(np.arange(start, stop), group.orders), axis=1)
    coeffs = np.zeros((stop - start, m), dtype=complex)
    if mode == "naive":
        W = exps * np.array([group.L // d for d in group.orders], dtype=np.int64)
        for n in range(m):
            lo, hi = p**n, 2 * p**n
            digs = group.digits[lo:hi][group.pos[lo:hi] >= 0]
            coeffs[:, n] = group.exp_table[(W @ digs.T) % group.L].sum(axis=1)
    else:
        for n, tab in enumerate(group.dft_tables()):
            coeffs[:, n] = np.conj(tab.reshape(-1)[start:stop])
    nonzero = ~(np.abs(coeffs) < COEFF_TOL)
    nonzero[:, 0] = True
    degree = m - 1 - np.argmax(nonzero[:, ::-1], axis=1)

    even, prim = (f.reshape(-1)[start:stop] for f in group.character_flags())
    nontrivial = exps.any(axis=1)
    trim = prim & even & (degree > 0)  # drop the trivial zero at u = 1
    n_angles = np.where(prim, degree - trim, -1)
    roots = np.full((stop - start, m - 1), np.nan, dtype=complex)
    angles = np.full((stop - start, m - 1), np.nan)
    for D in range(1, m):
        rows = np.flatnonzero((degree == D) & nontrivial)
        if rows.size == 0:
            continue
        rr = _inverse_roots(coeffs[rows, : D + 1])
        roots[rows, :D] = rr
        # a removed trivial zero becomes NaN, which sorts past the kept angles
        t = np.flatnonzero(trim[rows])
        rr[t, np.argmin(np.abs(rr[t] - 1.0), axis=1)] = np.nan
        angles[rows, :D] = _unitary_angles(rr, p)
    for arr in (coeffs, roots, angles):
        arr.flags.writeable = False
    return _LBlock(coeffs, degree, roots, angles, n_angles)


def l_polynomial(chi: DirichletCharacter, mode: str = "naive") -> LPolynomial:
    """The L-polynomial of a nontrivial character.

    mode "naive": c_n = sum over monic f of degree n < deg Q coprime to Q
    of chi(f) (such f are their own residues).  mode "dft": the same
    coefficients read out of the group-wide Fourier transform (computed once
    per group and cached).

    The result is looked up in the group's L-table for the mode.  A miss
    fills the block of `max(1, _LTABLE_CELLS // q^(deg Q - 1))` characters
    holding chi, in flat exponent-tuple order: its coefficients, its inverse
    roots (batched per degree) and its angles.  A call therefore costs at
    most one block, never the whole group, and calls for the other
    characters of the block cost a lookup.  The returned arrays are
    read-only views into the table.
    """
    if chi.is_trivial:
        raise TrivialCharacter("L is formed for nontrivial characters")
    g = chi.group
    table = g._l_tables.get(mode)
    if table is None:
        raise ValueError(f"unknown mode {mode!r}")
    b, i = divmod(int(np.ravel_multi_index(chi.exps, g.orders)), g._l_block_size)
    block = table.get(b)
    if block is None:
        start = b * g._l_block_size
        block = table[b] = _l_block(g, mode, start, min(g.phi, start + g._l_block_size))
    D, na = block.degree[i], block.n_angles[i]
    return LPolynomial(character=chi, coeffs=block.coeffs[i, : D + 1],
                       inverse_roots=block.inverse_roots[i, :D],
                       angles=None if na < 0 else block.angles[i, :na])


# weighted character sums ---------------------------------------------------------

_WEIGHT_CACHE: dict = {}
_RESIDUE_CACHE: dict = {}


def _weights_over_monic(ctx: FieldCtx, n: int, weight: str, k: int) -> np.ndarray | None:
    """Weight array over M_n in index order; None means all-ones.  The
    weights are read off the sieve's exponent profile of all of M_n."""
    if weight == "unit":
        return None
    key = (ctx.p, n, weight, k)
    if key in _WEIGHT_CACHE:
        return _WEIGHT_CACHE[key]
    read = {"mobius": _batch.mobius_from_counts,
            "von_mangoldt": _batch.von_mangoldt_from_counts,
            "divisor_k": lambda counts: _batch.divisor_k_from_counts(counts, k)}.get(weight)
    if read is None:
        raise ValueError(f"unknown weight {weight!r}")
    if n == 0:  # f = 1: mu = d_k = 1, Lambda = 0
        w = np.array([int(weight != "von_mangoldt")], dtype=np.int64)
    else:
        [(_, counts)] = _batch.sieve_profiles(ctx, n, ctx.p**n)
        w = read(counts)
    if len(_WEIGHT_CACHE) > 64:
        _WEIGHT_CACHE.clear()
    _WEIGHT_CACHE[key] = w
    return w


def _monic_residue_indices(group: DirichletGroup, n: int) -> np.ndarray:
    """Residue indices of all of M_n mod Q, in monic index order."""
    p = group.ctx.p
    m = group.Q.degree
    if n < m:
        return np.arange(p**n, 2 * p**n, dtype=np.int64)
    key = (p, group.Q.coeffs, n)
    if key in _RESIDUE_CACHE:
        return _RESIDUE_CACHE[key]
    block = _batch.monic_block(group.ctx, n, 0, p**n)
    res = _batch.reduce_mod(block, group.q_low, p)
    idx = _batch.block_index(res, p)
    if len(_RESIDUE_CACHE) > 16:
        _RESIDUE_CACHE.clear()
    _RESIDUE_CACHE[key] = idx
    return idx


def m_sum(n: int, chi: DirichletCharacter, weight: str = "unit", k: int = 2,
          budget: int | None = 10**8) -> complex:
    """M(n; w chi) = sum over monic f of degree n of w(f) chi(f).

    weight: unit | mobius | von_mangoldt | divisor_k (with k).  A lookup in
    the group's lattice of `weighted_character_sums`, so every character of
    a group shares one transform per (n, weight, k).
    """
    return complex(weighted_character_sums(chi.group, n, weight, k, budget)[chi.exps])


def weighted_character_sums(group: DirichletGroup, n: int, weight: str = "unit",
                            k: int = 2, budget: int | None = 10**8) -> np.ndarray:
    """M(n; w chi) for every character at once: a read-only lattice indexed
    by exponent tuples, from one weighted Fourier transform over the unit
    group.  The lattice is computed once per (n, weight, k) and cached on
    the group; the budget is checked before any work."""
    p = group.ctx.p
    if budget is not None and p**n > budget:
        raise BudgetExceeded(f"q^n = {p**n} exceeds budget {budget}")
    key = (n, weight, k)
    sums = group._sums.get(key)
    if sums is None:
        sums = _character_fft(group, n, _weights_over_monic(group.ctx, n, weight, k))
        np.conjugate(sums, out=sums)
        sums.flags.writeable = False
        group._sums[key] = sums
    return sums


def _character_fft(group: DirichletGroup, n: int, wt: np.ndarray | None) -> np.ndarray:
    """fftn over the exponent lattice (shape `group.orders`) of the weights
    wt over M_n (None means all ones); entry [c] is conj(sum of wt(f)
    chi_c(f) over f in M_n)."""
    res = _monic_residue_indices(group, n)
    mask = group.pos[res] >= 0
    digs = group.digits[res[mask]]
    w = wt[mask] if wt is not None else np.ones(int(mask.sum()))
    W = np.zeros(group.orders if group.orders else (1,), dtype=complex)
    np.add.at(W, tuple(digs.T) if group.orders else (np.zeros(digs.shape[0], int),), w)
    return np.fft.fftn(W).reshape(group.orders)


def explicit_formula_check(n: int, chi: DirichletCharacter,
                           lpoly: LPolynomial | None = None):
    """Both sides of M(n; mu chi) = sum_{k=0}^n q^{k/2} tr Sym^k Theta_chi
    for even primitive chi, computed independently; returns
    (lhs, rhs, abs error)."""
    if not (chi.is_even and chi.is_primitive) or chi.is_trivial:
        raise NotEvenPrimitive("explicit formula needs an even primitive character")
    q = chi.group.ctx.p
    lhs = m_sum(n, chi, weight="mobius")
    if lpoly is None:
        lpoly = l_polynomial(chi)
    ang = lpoly.angles
    if n == 0:
        rhs = 1 + 0j
    elif ang.size == 0:
        rhs = 1 + 0j
    else:
        ps = _rmt.power_sums(ang, n)
        h = _rmt.homogeneous_from_power(ps, n)
        rhs = complex(sum(q ** (kk / 2) * h[kk] for kk in range(n + 1)))
    return lhs, rhs, abs(lhs - rhs)


def generating_identity_error(chi: DirichletCharacter,
                              lpoly: LPolynomial | None = None) -> float:
    """Max coefficient deviation of (sum_n M(n; mu chi) u^n) L(u, chi) = 1
    through degree deg Q + 2."""
    if chi.is_trivial:
        raise TrivialCharacter("identity stated for nontrivial characters")
    if lpoly is None:
        lpoly = l_polynomial(chi)
    m = chi.group.Q.degree
    top = m + 2
    M = [m_sum(n, chi, weight="mobius") for n in range(top + 1)]
    c = lpoly.coeffs
    worst = 0.0
    for n in range(top + 1):
        acc = sum(c[j] * M[n - j] for j in range(0, min(n, len(c) - 1) + 1))
        worst = max(worst, abs(acc - (1.0 if n == 0 else 0.0)))
    return worst


# Katz equidistribution ------------------------------------------------------------


def _lattice_flags(group: DirichletGroup):
    """(even, primitive) boolean lattices over all exponent tuples."""
    orders = group.orders
    L = group.L
    idx = np.indices(orders, dtype=np.int64)
    wbase = np.array([L // d for d in orders], dtype=np.int64)

    def phase(digrow):
        t = np.zeros(orders, dtype=np.int64)
        for i in range(len(orders)):
            t += idx[i] * (wbase[i] * int(digrow[i]))
        return t % L

    even = phase(np.array(group.scalar_digits, dtype=np.int64)) == 0
    if group.shape == "x_power":
        if group.Q.degree == 1:
            prim = np.ones(orders, dtype=bool)
            prim[(0,) * len(orders)] = False
        else:
            prim = np.zeros(orders, dtype=bool)
            for row in group.kernel_digits():
                prim |= phase(row) != 0
    else:
        prim = np.ones(orders, dtype=bool)
        for i in range(len(orders)):
            sl = [slice(None)] * len(orders)
            sl[i] = 0
            prim[tuple(sl)] = False
    return even, prim


def frobenius_angles_even_primitive(group: DirichletGroup) -> np.ndarray:
    """(count, deg Q - 2) unitarized eigenangle rows for every even primitive
    character, via the group-wide transform and batched dual root-finding."""
    m = group.Q.degree
    q = group.ctx.p
    if m < 3:
        raise PreconditionError("need deg Q >= 3 for a nonempty spectrum")
    even, prim = group.character_flags()
    sel = even & prim
    tabs = group.dft_tables()
    C = int(sel.sum())
    coeffs = np.empty((C, m), dtype=complex)
    for n in range(m):
        coeffs[:, n] = np.conj(tabs[n][sel])
    # remove the trivial zero: L = (1-u) Ltilde, Ltilde_j = sum_{i<=j} c_i
    full = np.cumsum(coeffs, axis=1)
    if np.abs(full[:, m - 1]).max() > 1e-6:
        raise RootFindingDidNotConverge("trivial zero removal residual too large")
    return _unitary_angles(_inverse_roots(full[:, : m - 1]), q)


def katz_average(N: int, q: int, statistic, samples: int = 100_000,
                 seed: int = 0):
    """Average of a center-invariant class statistic over the Frobenius
    conjugacy classes of all even primitive characters mod x^{N+2}, with the
    Haar Monte Carlo reference over U(N).

    The statistic must be invariant under scalar rotation; this is the
    caller's contract and is not checked.
    """
    if N < 2:
        raise PreconditionError("N >= 2 required")
    ctx = make_field(q)
    Q = Poly.monomial(ctx, N + 2)
    group = build_unit_group(Q)
    ang = frobenius_angles_even_primitive(group)
    if hasattr(statistic, "batch"):
        vals = np.asarray(statistic.batch(ang), dtype=float)
    else:
        vals = np.array([float(statistic(row)) for row in ang])
    empirical = float(vals.mean())
    reference = _rmt.mc_integral(statistic, N, samples, seed)[0]
    return empirical, reference
