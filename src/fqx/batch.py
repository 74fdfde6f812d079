"""Vectorized engines for bulk polynomial arithmetic over F_p.

Internal module: everything here is cross-checked against the scalar
reference implementations in polyring.  Monic degree-n polynomials are
handled as int64 arrays of shape (rows, n) holding the coefficients of
degrees 0..n-1 (the leading 1 is implicit), in the little-endian index
order of ensembles.monic_index.

Two routes compute the arithmetic functions.  Exhaustive scans of M_n in
index order use the exponent-profile sieve (`sieve_profiles`): Eratosthenes
over F_p[x], segmented by the top coefficients, whose per-segment profile
gives Lambda, mu and d_k through the `*_from_counts` readouts.  Sampled
rows, sampled interval classes and shifted rows, which have no index
structure to sieve, use the per-row kernels (determinants, discriminants,
and the (degree, exponent) profile read from deg gcd(f, (x^{q^d} - x)^j),
whose cost does not grow with the number of primes); they are also the
sieve's independent cross-check.

Numeric discipline: coefficients stay reduced mod p except inside short
delayed-reduction windows whose bounds fit comfortably in int64
(p <= 2^16 style moduli; the experiments use p <= a few hundred).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .field import FieldCtx


def index_rows(idx: np.ndarray, n: int, p: int) -> np.ndarray:
    """Coefficient rows (width n) of the little-endian indices idx: the
    base-p digits, lowest first."""
    out = np.empty((idx.size, n), dtype=np.int64)
    for j in range(n):
        idx, out[:, j] = np.divmod(idx, p)
    return out


def monic_block(ctx: FieldCtx, n: int, start: int, stop: int) -> np.ndarray:
    """Coefficient rows for monic index range [start, stop)."""
    return index_rows(np.arange(start, stop, dtype=np.int64), n, ctx.p)


def block_index(block: np.ndarray, p: int) -> np.ndarray:
    """Inverse of index_rows: little-endian index of each row."""
    idx = np.zeros(block.shape[0], dtype=np.int64)
    for j in range(block.shape[1] - 1, -1, -1):
        idx = idx * p + block[:, j]
    return idx


def modinv_vec(a: np.ndarray, p: int) -> np.ndarray:
    """Elementwise a^(p-2) mod p; caller guarantees a != 0 mod p."""
    e = p - 2
    result = np.ones_like(a)
    base = a % p
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return result


# modular arithmetic on coefficient rows -------------------------------------


def mul_by_x_mod(g: np.ndarray, f_low: np.ndarray, p: int) -> np.ndarray:
    """x*g mod f for rows of deg<n polynomials g, monic moduli f = x^n + f_low."""
    t = g[:, -1]
    out = np.empty_like(g)
    out[:, 1:] = g[:, :-1]
    out[:, 0] = 0
    out -= t[:, None] * f_low
    return out % p


def block_mulmod(a: np.ndarray, b: np.ndarray, f_low: np.ndarray, p: int) -> np.ndarray:
    """a*b mod f rowwise; a, b of shape (rows, n), moduli x^n + f_low with
    f_low of shape (n,) or (rows, n).

    Every int64 accumulator holds at most n products below p^2 (added, or
    subtracted by the folds), so the result is exact while n (p-1)^2 < 2^63;
    past that PreconditionError is raised rather than a wrapped row returned.
    """
    rows, n = a.shape
    if n * (int(p) - 1) ** 2 >= 1 << 63:
        raise PreconditionError(
            f"block_mulmod needs n (p-1)^2 < 2^63, got n={n}, p={p}")
    # coefficient-major, so each x^k is one contiguous vector: numpy takes
    # x - x // p * p (x % p for p > 0) several times faster than x % p, but
    # only on contiguous data
    aT = np.ascontiguousarray(a.T)
    bT = np.ascontiguousarray(b.T)
    fT = np.ascontiguousarray(f_low.T).reshape(n, -1)
    acc = np.zeros((2 * n - 1, rows), dtype=np.int64)
    for j in range(n):
        acc[j : j + n] += aT[j] * bT
    # fold x^k = -x^{k-n} f_low for k = 2n-2 .. n
    for k in range(2 * n - 2, n - 1, -1):
        t = acc[k] - acc[k] // p * p
        acc[k - n : k] -= fT * t
    out = acc[:n]
    return np.ascontiguousarray((out - out // p * p).T)


def compose_mod(outer: np.ndarray, inner: np.ndarray, f_low: np.ndarray, p: int) -> np.ndarray:
    """outer(inner) mod f rowwise by Horner; all shapes (rows, n)."""
    rows, n = outer.shape
    acc = np.zeros((rows, n), dtype=np.int64)
    acc[:, 0] = outer[:, n - 1]
    for j in range(n - 2, -1, -1):
        acc = block_mulmod(acc, inner, f_low, p)
        acc[:, 0] = (acc[:, 0] + outer[:, j]) % p
    return acc


def x_power_q_mod(f_low: np.ndarray, p: int) -> np.ndarray:
    """x^p mod f rowwise, by square and multiply on the exponent p."""
    rows, n = f_low.shape
    g = np.zeros((rows, n), dtype=np.int64)
    if p < n:
        g[:, p] = 1
        return g
    if n == 1:
        # f = x + c: x = -c mod f, and (-c)^p = -c in F_p
        g[:, 0] = (-f_low[:, 0]) % p
        return g
    g[:, 1] = 1  # g = x
    for bit in bin(p)[3:]:
        g = block_mulmod(g, g, f_low, p)
        if bit == "1":
            g = mul_by_x_mod(g, f_low, p)
    return g


def frobenius_mod(f_low: np.ndarray, p: int, dmax: int) -> list[np.ndarray]:
    """[x^{p^d} mod f for d = 1..dmax].

    h -> h^p is F_p-linear on F_p[x]/(f), with matrix columns (x^p)^i mod
    f, so each power after x^p is one matrix-vector product.
    """
    rows, n = f_low.shape
    g1 = x_power_q_mod(f_low, p)
    out = [g1]
    if dmax > 1:
        M = np.zeros((rows, n, n), dtype=np.int64)
        M[:, 0, 0] = 1
        for i in range(1, n):
            M[:, :, i] = g1 if i == 1 else block_mulmod(M[:, :, i - 1], g1, f_low, p)
        for _ in range(dmax - 1):
            out.append(np.matmul(M, out[-1][:, :, None])[:, :, 0] % p)
    return out


# evaluation ------------------------------------------------------------------


def _power_table(p: int, n: int) -> np.ndarray:
    """(p, n+1) table of a^j mod p."""
    tab = np.empty((p, n + 1), dtype=np.int64)
    tab[:, 0] = 1
    a = np.arange(p, dtype=np.int64)
    for j in range(1, n + 1):
        tab[:, j] = tab[:, j - 1] * a % p
    return tab


def eval_at_all_points(block: np.ndarray, p: int) -> np.ndarray:
    """(rows, p) values f(a) at every a in F_p, for monic f = x^n + low."""
    n = block.shape[1]
    tab = _power_table(p, n)
    vals = block @ tab[:, :n].T + tab[:, n]
    return vals % p


def count_roots(block: np.ndarray, p: int) -> np.ndarray:
    """Number of distinct roots in F_p of each monic row."""
    return (eval_at_all_points(block, p) == 0).sum(axis=1)


# determinants, resultants, discriminants -------------------------------------


def batch_det(M: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a stack (rows, n, n) by Gaussian elimination.

    Zero pivots are repaired by adding a lower row (det preserving); rows
    where the whole column vanishes are singular.  M is consumed.
    """
    rows, n, _ = M.shape
    M %= p
    det = np.ones(rows, dtype=np.int64)
    dead = np.zeros(rows, dtype=bool)
    for k in range(n):
        piv = M[:, k, k]
        for j in range(k + 1, n):
            need = (piv == 0) & ~dead & (M[:, j, k] != 0)
            if need.any():
                M[need, k, :] = (M[need, k, :] + M[need, j, :]) % p
                piv = M[:, k, k]
        dead |= piv == 0
        det = det * piv % p
        if k == n - 1:
            break
        inv = modinv_vec(np.where(piv == 0, 1, piv), p)
        factor = M[:, k + 1 :, k] * inv[:, None] % p
        M[:, k + 1 :, k:] = (M[:, k + 1 :, k:] - factor[:, :, None] * M[:, None, k, k:]) % p
    det[dead] = 0
    return det


def mult_matrix(g: np.ndarray, f_low: np.ndarray, p: int) -> np.ndarray:
    """Matrix of multiplication by g on F_p[x]/(f), columns x^j g mod f."""
    rows, n = g.shape
    M = np.empty((rows, n, n), dtype=np.int64)
    col = g % p
    M[:, :, 0] = col
    for j in range(1, n):
        col = mul_by_x_mod(col, f_low, p)
        M[:, :, j] = col
    return M


def batch_resultant(f_low: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """Res(f, g) for monic f = x^n + f_low and deg g < n, as det of the
    multiplication-by-g map (the norm of g)."""
    return batch_det(mult_matrix(g, f_low, p), p)


def derivative_rows(block: np.ndarray, p: int) -> np.ndarray:
    """f' as width-n rows for monic f = x^n + low (deg f' <= n-1)."""
    rows, n = block.shape
    d = np.empty((rows, n), dtype=np.int64)
    for j in range(n - 1):
        d[:, j] = (j + 1) * block[:, j + 1] % p
    d[:, n - 1] = n % p
    return d


def batch_disc(block: np.ndarray, p: int) -> np.ndarray:
    """Discriminants of monic rows: (-1)^{n(n-1)/2} Res(f, f')."""
    n = block.shape[1]
    res = batch_resultant(block, derivative_rows(block, p), p)
    if (n * (n - 1) // 2) % 2:
        res = (-res) % p
    return res


def batch_mobius(block: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """mu of monic rows via (-1)^n chi_2(disc); odd p only (Pellet)."""
    if not ctx.odd:
        raise ValueError("batch mobius needs odd characteristic")
    p = ctx.p
    n = block.shape[1]
    chi = np.zeros(p, dtype=np.int64)
    sq = np.arange(1, p, dtype=np.int64)
    chi[sq * sq % p] = 1
    chi[(chi == 0)] = -1
    chi[0] = 0
    mu = chi[batch_disc(block, p)]
    return -mu if n % 2 else mu


# gcd degrees ------------------------------------------------------------------


def batch_gcd_degree(A: np.ndarray, dA: np.ndarray, B: np.ndarray, dB: np.ndarray,
                     p: int) -> np.ndarray:
    """Degrees of gcd for row pairs, by a lockstep Euclidean elimination.

    A, B: (rows, W) reduced coefficient arrays; dA, dB their degrees
    (-1 marks the zero polynomial).  gcd(0, 0) never occurs in our calls.
    All four inputs are consumed.

    Rows are held top first, column 0 at degree dA (dB).  B's top
    coefficient is never zero; A's may be, dA then being an upper bound.
    One step swaps A and B where dA < dB and A's top is nonzero, replaces
    A by lc(B) A - lc(A) x^(dA-dB) B, which is the same columnwise
    combination for every row and needs no inverse, and drops A's now
    zero top column.  A row is done when A is zero: its gcd is B.
    """
    W = A.shape[1]
    out = dA.copy()
    live = np.flatnonzero(dB >= 0)
    if live.size == 0:
        return out
    src = np.arange(W, dtype=np.int64)[None, :]

    def top_first(M, d):
        s = d[:, None] - src
        return np.where(s >= 0, np.take_along_axis(M, np.maximum(s, 0), axis=1), 0)

    a, da = top_first(A[live], dA[live]), dA[live]
    b, db = top_first(B[live], dB[live]), dB[live]
    while live.size:
        swap = (da < db) & (a[:, 0] != 0)
        if swap.any():
            a, b = np.where(swap[:, None], b, a), np.where(swap[:, None], a, b)
            da, db = np.where(swap, db, da), np.where(swap, da, db)
        a = b[:, :1] * a - a[:, :1] * b
        a -= a // p * p  # a % p; numpy takes remainders far slower
        a[:, :-1] = a[:, 1:]
        a[:, -1] = 0
        da = da - 1
        done = ~a.any(axis=1)
        if done.any():
            out[live[done]] = db[done]
            keep = ~done
            live, a, da, b, db = live[keep], a[keep], da[keep], b[keep], db[keep]
    return out


def reduce_rows(rows: np.ndarray, q_low: np.ndarray, p: int) -> np.ndarray:
    """Rows of reduced coefficients (degrees 0..w-1, any leading term)
    reduced mod the single monic modulus Q = x^m + q_low; returns (rows, m)
    residues.  rows is consumed."""
    nrows, w = rows.shape
    m = q_low.shape[0]
    if w <= m:
        out = np.zeros((nrows, m), dtype=np.int64)
        out[:, :w] = rows
        return out % p
    for k in range(w - 1, m - 1, -1):
        t = rows[:, k] % p
        rows[:, k - m : k] -= t[:, None] * q_low
        if k > m:
            rows[:, k - m : k] %= p
    return rows[:, :m] % p


def reduce_mod(block: np.ndarray, q_low: np.ndarray, p: int) -> np.ndarray:
    """Monic rows x^n + block reduced mod the single monic modulus
    Q = x^m + q_low; returns (rows, m) residues."""
    rows, n = block.shape
    work = np.empty((rows, n + 1), dtype=np.int64)
    work[:, :n] = block
    work[:, n] = 1
    return reduce_rows(work, q_low, p)


# irreducibility and factorization statistics ----------------------------------


def batch_is_irreducible(block: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Boolean mask of irreducible monic rows.

    Staged sieve: kill rows with a root, then for d = 2..n//2 kill rows
    where gcd(f, x^{q^d} - x) is nontrivial, detected by Res(f, x^{q^d}-x)
    = 0.  Survivor sets shrink fast so rows are compacted between stages.
    """
    p = ctx.p
    rows, n = block.shape
    out = np.zeros(rows, dtype=bool)
    if n == 0:
        return out
    if n == 1:
        out[:] = True
        return out
    alive = np.flatnonzero(count_roots(block, p) == 0)
    if alive.size == 0:
        return out
    if n <= 3:
        # rootless quadratics and cubics are irreducible
        out[alive] = True
        return out
    F = block[alive]
    g1 = x_power_q_mod(F, p)
    g = g1
    for d in range(2, n // 2 + 1):
        g = compose_mod(g1, g, F, p)
        gx = g.copy()
        gx[:, 1] = (gx[:, 1] - 1) % p
        keep = batch_det(mult_matrix(gx, F, p), p) != 0
        # rows with x^{q^d} = x mod f have a degree-d factor too (gx = 0)
        alive = alive[keep]
        if alive.size == 0:
            return out
        if d < n // 2:
            F = F[keep]
            g1 = g1[keep]
            g = g[keep]
    out[alive] = True
    return out


def proper_prime_power_indices(ctx: FieldCtx, n: int):
    """Indices and Lambda values of monic P^k with k >= 2, deg P^k = n."""
    from .ensembles import monic_index
    from .polyring import Poly, is_irreducible

    idx = []
    val = []
    for d in range(1, n // 2 + 1):
        if n % d:
            continue
        k = n // d
        q = ctx.p
        for t in range(q**d):
            coeffs = []
            u = t
            for _ in range(d):
                u, c = divmod(u, q)
                coeffs.append(c)
            coeffs.append(1)
            P = Poly(ctx, coeffs)
            if is_irreducible(P):
                idx.append(monic_index(P**k))
                val.append(d)
    return np.array(idx, dtype=np.int64), np.array(val, dtype=np.int64)


def batch_von_mangoldt(block: np.ndarray, ctx: FieldCtx, start_index: int,
                       prime_powers=None) -> np.ndarray:
    """Lambda of the monic rows of an index-contiguous block starting at
    start_index.  prime_powers: optional precomputed
    proper_prime_power_indices(ctx, n)."""
    n = block.shape[1]
    lam = np.where(batch_is_irreducible(block, ctx), n, 0).astype(np.int64)
    if prime_powers is None:
        prime_powers = proper_prime_power_indices(ctx, n)
    ppi, ppv = prime_powers
    stop_index = start_index + block.shape[0]
    sel = (ppi >= start_index) & (ppi < stop_index)
    lam[ppi[sel] - start_index] += ppv[sel]
    return lam


def _gcd_degree_with(block: np.ndarray, other: np.ndarray, p: int) -> np.ndarray:
    """deg gcd(f, g) for monic f = x^n + block rows and rows g of width <= n+1."""
    rows, n = block.shape
    A = np.concatenate([block, np.ones((rows, 1), dtype=np.int64)], axis=1)
    dA = np.full(rows, n, dtype=np.int64)
    B = np.zeros((rows, n + 1), dtype=np.int64)
    B[:, : other.shape[1]] = other
    nz = B != 0
    dB = np.where(nz.any(axis=1), n - np.argmax(nz[:, ::-1], axis=1), -1)
    return batch_gcd_degree(A, dA, B, dB, p)


_PROFILE_CELLS = 1 << 19  # rows * n^2 per profile chunk: a 4 MiB Frobenius matrix


def _factor_profile(block: np.ndarray, ctx: FieldCtx, read) -> np.ndarray:
    """read(N, rest) over the (degree, exponent) profile of monic rows,
    read from gcd degrees.

    N[i, d, j] is the number of primes of degree d <= n/2 dividing row i
    at least j times (zero past j = n/d), and rest[i] the degree of the one
    prime factor of degree > n/2, or 0; read maps them to one array over
    the rows.

    x^{q^d} - x is the product of the monic primes of degree dividing d, so
    deg gcd(f, (x^{q^d} - x)^j) = sum over P | f with deg P | d of
    deg P min(e_P, j).  Its rise from j-1 to j is the sum over e | d of
    e N[e, j], which gives N[d, j] once the divisors e < d are done.  Step
    j runs only on the rows whose degree-d count rose at step j-1 and that
    have d degrees left unaccounted for.  No step depends on the
    characteristic, so exponents >= p come out exact.  Rows go through in
    chunks of _PROFILE_CELLS / n^2, which bounds the working memory.
    """
    rows, n = block.shape
    step = max(1, _PROFILE_CELLS // max(1, n * n))
    return np.concatenate([read(*_profile_chunk(block[lo : lo + step], ctx.p))
                           for lo in range(0, max(rows, 1), step)])


def _profile_chunk(block: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, rest) of _factor_profile for the rows of block."""
    rows, n = block.shape
    half = n // 2
    N = np.zeros((rows, half + 1, n + 2), dtype=np.int64)
    left = np.full(rows, n, dtype=np.int64)
    frob = frobenius_mod(block, p, half) if half else []
    for d in range(1, half + 1):
        at = np.flatnonzero(left >= d)
        F = block[at]
        g = frob[d - 1][at]
        g[:, 1] = (g[:, 1] - 1) % p  # x^{q^d} - x mod f
        divisors = [e for e in range(1, d) if d % e == 0]
        power, prev = g, np.zeros(at.size, dtype=np.int64)
        for j in range(1, n // d + 1):
            S = _gcd_degree_with(F, power, p)
            rise = S - prev
            for e in divisors:
                rise -= e * N[at, e, j]
            N[at, d, j] = count = rise // d
            left[at] -= d * count
            step = (count > 0) & (left[at] >= d)
            if not step.any():
                break
            at, F, g, prev = at[step], F[step], g[step], S[step]
            power = block_mulmod(power[step], g, F, p)
    return N, left


def batch_cycle_types(block: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Cycle types (rows, n) of monic rows: lam[:, d-1] counts the prime
    factors of degree d with multiplicity, read off the gcd profile."""
    n = block.shape[1]

    def read(N, rest):
        lam = np.zeros((rest.size, n), dtype=np.int64)
        lam[:, : n // 2] = N[:, 1:, :].sum(axis=2)
        big = np.flatnonzero(rest)
        lam[big, rest[big] - 1] += 1
        return lam

    return _factor_profile(block, ctx, read)


def batch_lambda2(block: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Lambda_2 = Lambda*Lambda + deg*Lambda of monic rows.

    Supported on polynomials with at most two distinct primes: P^a gives
    (2a-1) deg(P)^2 and P^a Q^b gives 2 deg(P) deg(Q), independent of the
    exponents.  The distinct primes and their degrees come from the gcd
    profile; for one prime the exponent is forced, a = n / deg P.
    """
    n = block.shape[1]

    def read(N, rest):
        nu = N[:, :, 1]  # distinct primes of each degree d <= n/2
        dvec = np.arange(nu.shape[1], dtype=np.int64)
        R = nu.sum(axis=1) + (rest > 0)
        sum_d = nu @ dvec + rest
        sum_d2 = nu @ (dvec * dvec) + rest * rest
        out = np.zeros(rest.size, dtype=np.int64)
        one = R == 1
        out[one] = (2 * (n // sum_d[one]) - 1) * sum_d[one] ** 2
        two = R == 2
        out[two] = sum_d[two] ** 2 - sum_d2[two]
        return out

    return _factor_profile(block, ctx, read)


def batch_divisor_r_small(block: np.ndarray, ctx: FieldCtx, r: int) -> np.ndarray:
    """d_r of monic rows for n <= 3: the factorization shape is determined
    by the discriminant and the number of distinct roots."""
    rows, n = block.shape
    p = ctx.p
    if n > 3:
        raise ValueError("shape route only covers n <= 3")
    if n == 0:
        return np.ones(rows, dtype=np.int64)
    if n == 1:
        return np.full(rows, r, dtype=np.int64)
    sf = batch_disc(block.copy(), p) != 0
    roots = count_roots(block, p)
    out = np.empty(rows, dtype=np.int64)
    if n == 2:
        out[sf & (roots == 2)] = r * r
        out[sf & (roots == 0)] = r
        out[~sf] = r * (r + 1) // 2
    else:
        out[sf & (roots == 3)] = r**3
        out[sf & (roots == 1)] = r * r
        out[sf & (roots == 0)] = r
        out[~sf & (roots == 2)] = r * r * (r + 1) // 2
        out[~sf & (roots == 1)] = r * (r + 1) * (r + 2) // 6
    return out


def batch_exponent_counts(block: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Factorization exponent profile of monic rows, from gcd degrees.

    out[i, e] is the number of distinct irreducible factors dividing row i
    exactly e times, read off the (degree, exponent) profile of
    `_factor_profile`; the one prime of degree > n/2 that may be left over
    lands in the e = 1 slot.  The cost is O(n log n) batched gcds and the
    Frobenius powers, whatever the number of primes of degree <= n/2.
    """
    n = block.shape[1]

    def read(N, rest):
        counts = np.zeros((rest.size, n + 1), dtype=np.int64)
        counts[:, 1:] = (N[:, :, 1:-1] - N[:, :, 2:]).sum(axis=1)
        counts[:, 1] += rest > 0
        return counts

    return _factor_profile(block, ctx, read)


def batch_divisor_k(block: np.ndarray, ctx: FieldCtx, k: int) -> np.ndarray:
    """d_k of monic rows for any degree, via the gcd exponent profile:
    d_k = prod over factors of binom(e + k-1, k-1)."""
    rows, n = block.shape
    if k < 1:
        raise ValueError("need k >= 1")
    if k == 1 or n == 0:
        return np.ones(rows, dtype=np.int64)
    return divisor_k_from_counts(batch_exponent_counts(block, ctx), k)


def divisor_k_from_counts(counts: np.ndarray, k: int) -> np.ndarray:
    """d_k from an exponent profile (batch_exponent_counts or
    sieve_profiles); lets one profile serve several k values.

    d_k is the product over the factors P^e of binom(e+k-1, k-1).  The
    values are int64 when every one of them fits, and Python ints (dtype
    object) otherwise, so a large k never wraps.
    """
    n = counts.shape[1] - 1
    binoms = [math.comb(e + k - 1, k - 1) for e in range(n + 1)]
    log2_dk = counts @ np.array([math.log2(b) for b in binoms])
    exact = log2_dk.max(initial=0.0) < 62  # one bit of slack for rounding
    dk = np.ones(counts.shape[0], dtype=np.int64 if exact else object)
    for e in range(1, n + 1):
        ce = counts[:, e]
        hot = np.flatnonzero(ce)
        if hot.size:
            if exact:
                dk[hot] *= np.int64(binoms[e]) ** ce[hot]
            else:
                dk[hot] *= binoms[e] ** ce[hot].astype(object)
    return dk


# exponent-profile sieve ---------------------------------------------------------


def _poly_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Products of coefficient rows (lowest degree first, any leading
    coefficient), broadcast over the leading axes: (..., la) * (..., lb)
    -> (..., la + lb - 1), reduced mod p."""
    if a.shape[-1] > b.shape[-1]:
        a, b = b, a
    la, lb = a.shape[-1], b.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (la + lb - 1,),
                   dtype=np.int64)
    for j in range(la):
        out[..., j : j + lb] += a[..., j : j + 1] * b
    return out % p


def _monic_full(p: int, m: int) -> np.ndarray:
    """All of M_m in index order as full coefficient rows (leading 1 kept)."""
    out = np.ones((p**m, m + 1), dtype=np.int64)
    out[:, :m] = index_rows(np.arange(p**m, dtype=np.int64), m, p)
    return out


def _monic_primes(p: int, dmax: int) -> dict[int, np.ndarray]:
    """{d: the monic irreducibles of degree d as full coefficient rows, in
    index order} for d = 1..dmax, by Eratosthenes over each M_d."""
    primes: dict[int, np.ndarray] = {}
    for d in range(1, dmax + 1):
        composite = np.zeros(p**d, dtype=bool)
        for i in range(1, d // 2 + 1):
            prod = _poly_mul(primes[i][:, None, :], _monic_full(p, d - i)[None], p)
            composite[block_index(prod.reshape(-1, d + 1)[:, :d], p)] = True
        primes[d] = _monic_full(p, d)[~composite]
    return primes


class SieveTables(NamedTuple):
    """Tables for sieving the segments of seg_rows = p^(n-s) rows of M_n.

    dense holds (d, e, Q, low, high) for the prime powers Q = P^e whose
    multiples are one fixed table per segment; listed holds (d, e, idx),
    the sorted indices of every multiple of the other prime powers.
    """

    p: int
    n: int
    s: int
    rows: int
    dense: list
    listed: list


def sieve_tables(ctx: FieldCtx, n: int, seg_rows: int) -> SieveTables:
    """The SieveTables for every segment of M_n: per prime power Q = P^e
    (deg P = d <= n/2, ed <= n) with cofactor degree m = n - ed, either the
    dense table of Q * g_low or the sorted indices of every Q * g.

    A segment is the seg_rows = p^(n-s) indices whose top s coefficients
    agree.  When m >= s the segment's top coefficients fix the top s
    coefficients of the monic cofactor g (Q is monic), and g's low m - s
    coefficients g_low run free, so the multiples of Q in a segment are
    one fixed table shifted digitwise.  When m < s the p^m multiples of
    each Q are few and are enumerated once.
    """
    p = ctx.p
    s = 0
    while p ** (n - s) > seg_rows:
        s += 1
    if p ** (n - s) != seg_rows:
        raise ValueError(f"segment rows must be a power of {p} dividing {p**n}")
    dense, listed = [], []
    for d, P in _monic_primes(p, n // 2).items():
        Q = P
        for e in range(1, n // d + 1):
            if e > 1:
                Q = _poly_mul(Q, P, p)
            m = n - e * d
            if m >= s:
                free = index_rows(np.arange(p ** (m - s), dtype=np.int64), m - s, p)
                tab = _poly_mul(Q[:, None, :], free[None], p)  # (pi_d, p^(m-s), n-s)
                low = tab[..., : m - s] @ p ** np.arange(m - s, dtype=np.int64)
                dense.append((d, e, Q, low, np.ascontiguousarray(tab[..., m - s :])))
            else:
                f = _poly_mul(Q[:, None, :], _monic_full(p, m)[None], p)
                idx = np.sort(block_index(f.reshape(-1, n + 1)[:, :n], p))
                listed.append((d, e, idx))
    return SieveTables(p, n, s, seg_rows, dense, listed)


def sieve_segment(sv: SieveTables, start: int) -> np.ndarray:
    """Exponent profile, in the layout of batch_exponent_counts, of the
    segment [start, start + rows) of M_n (start a multiple of rows)."""
    p, n, s, L = sv.p, sv.n, sv.s, sv.rows
    top = index_rows(np.array([start // L], dtype=np.int64), s, p)[0]
    work = np.zeros((n + 1, L), dtype=np.int64)  # work[e] = counts[:, e]
    residual = np.full(L, n, dtype=np.int64)

    def add(d, e, hits):
        work[e] += hits
        if e > 1:
            work[e - 1] -= hits
        residual[:] -= d * hits

    for d, e, Q, low, high in sv.dense:
        ed = e * d
        # G = x^s + g_top from the top of Q*G = the segment's top s digits
        G = np.zeros((Q.shape[0], s + 1), dtype=np.int64)
        G[:, s] = 1
        for c in range(s - 1, -1, -1):
            w = min(s - c, ed)
            acc = top[c] - (Q[:, ed - w : ed][:, ::-1] * G[:, c + 1 : c + 1 + w]).sum(axis=1)
            G[:, c] = acc % p
        # the low ed coefficients of Q*G land on digits m-s .. n-s-1
        shift = _poly_mul(Q, G, p)[:, :ed]
        idx = low.copy()
        base = p ** (n - s - ed)
        for j in range(ed):
            idx += (high[..., j] + shift[:, j : j + 1]) % p * (base * p**j)
        add(d, e, np.bincount(idx.ravel(), minlength=L))
    for d, e, all_idx in sv.listed:
        lo, hi = np.searchsorted(all_idx, [start, start + L])
        add(d, e, np.bincount(all_idx[lo:hi] - start, minlength=L))
    work[1] += residual > 0
    return work.T


def sieve_profiles(ctx: FieldCtx, n: int, seg_rows: int):
    """(start, counts) for the segments of M_n of seg_rows = p^(n-s) rows,
    in index order; counts equals batch_exponent_counts on those rows.

    The tables are built once, when the first segment is asked for.  With
    segments of at most 400,000 rows (the experiments' shard) no table has
    more than seg_rows rows for q^n up to about 2.6e8; past that the listed
    multiples of the P^e with deg P^e > n - s can outgrow one segment.
    """
    sv = sieve_tables(ctx, n, seg_rows)
    for start in range(0, ctx.p**n, seg_rows):
        yield start, sieve_segment(sv, start)


def von_mangoldt_from_counts(counts: np.ndarray) -> np.ndarray:
    """Lambda from an exponent profile: n/e where exactly one prime divides
    f, with exponent e, else 0."""
    n = counts.shape[1] - 1
    lam = np.zeros(counts.shape[0], dtype=np.int64)
    single = counts.sum(axis=1) == 1
    for e in range(1, n + 1):
        if n % e == 0:
            lam[single & (counts[:, e] == 1)] = n // e
    return lam


def mobius_from_counts(counts: np.ndarray) -> np.ndarray:
    """mu from an exponent profile: 0 when a square divides f, else (-1)
    to the number of primes."""
    mu = 1 - 2 * (counts[:, 1] & 1)
    mu[counts[:, 2:].any(axis=1)] = 0
    return mu
