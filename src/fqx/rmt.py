"""Haar-random unitary spectra and matrix integrals over U(N).

Only eigenphases are kept: every statistic used here is a class function.
Monte Carlo estimates always carry a standard error; closed forms are exact
combinatorics.  Sampling batches are cached by (N, samples, seed) so that
several integrals over the same ensemble reuse one set of spectra.

Haar samples make no per-matrix LAPACK call.  Each block of Ginibre
matrices is held column-major over the block (one contiguous vector per
matrix entry), orthonormalized there by Gram-Schmidt applied twice with R's
diagonal positive, and raised to the powers up to ceil(N/2) for the traces
tr U^j.  The eigenphases come from the characteristic polynomial: Newton's
identities turn the traces into its coefficients, and `_poly_roots`, a
batched Durand-Kerner iteration, gives its roots.  `dirichlet` finds the
inverse roots of L-polynomials with the same root finder.  Phases are
returned in [0, 2 pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClosedFormNotAvailable, PreconditionError, RootFindingDidNotConverge

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class UnitarySpectrum:
    """Eigenphases of an N x N unitary, in [0, 2pi)."""

    N: int
    angles: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        return np.exp(1j * self.angles)


# rows per sub-block of _haar_angles: keeps the unitaries, their powers and
# the root finder's vectors to a few hundred KiB each
_HAAR_BLOCK = 4096


def _poly_roots(coeffs: np.ndarray) -> np.ndarray:
    """(rows, D) roots of the polynomials whose coefficient rows (rows, D+1)
    run from the highest power down, leading entries nonzero.

    Durand-Kerner from a fixed spiral start, z_k <- z_k - f(z_k) /
    prod_{j != k} (z_k - z_j), each z_k updated in place (Gauss-Seidel
    order) and held as one contiguous vector over the rows.  A row is frozen
    at the iteration where its own largest step falls below 1e-13, so its
    roots do not depend on the rows batched with it.  Rows still moving
    after 400 iterations (near repeated roots the iteration crawls) are
    returned as they stand: callers check every row.
    """
    rows, D = coeffs.shape[0], coeffs.shape[1] - 1
    a = np.ascontiguousarray((coeffs[:, 1:] / coeffs[:, :1]).T)
    z = np.repeat(((0.4 + 0.9j) ** np.arange(1, D + 1))[:, None], rows, axis=1)
    out = np.empty((D, rows), dtype=complex)
    live = np.arange(rows)
    for _ in range(400):
        if live.size == 0:
            break
        big = np.zeros(live.size)
        for k in range(D):
            zk = z[k]
            fz = zk + a[0]
            for j in range(1, D):
                fz = fz * zk + a[j]
            den = 1.0
            for j in range(D):
                if j != k:
                    den = den * (zk - z[j])
            step = fz / den
            zk -= step
            np.maximum(big, np.abs(step), out=big)
        done = big < 1e-13
        if done.any():
            out[:, live[done]] = z[:, done]
            z, a, live = z[:, ~done], a[:, ~done], live[~done]
    out[:, live] = z
    return out.T


def _phases(z: np.ndarray) -> np.ndarray:
    """Arguments of z in [0, 2 pi): np.angle(z) % 2 pi is exactly 2 pi for
    z a rounding error below the positive real axis, and that folds to 0."""
    a = np.angle(z) % TWO_PI
    a[a == TWO_PI] = 0.0
    return a


def _haar_unitaries(z: np.ndarray) -> np.ndarray:
    """The unitary factors U of Z = U R with R's diagonal real and positive
    (the Haar phase convention), for a (count, N, N) stack of Ginibre
    matrices, returned column-major over the stack: u[k, i, c] = U_c[i, k],
    so each column is one contiguous (N, count) block.

    Classical Gram-Schmidt applied twice per column, each pass projecting
    out all earlier columns at once; the second pass restores orthogonality
    to rounding level.  Dividing by the column norm makes R_kk > 0.
    """
    u = np.ascontiguousarray(z.transpose(2, 1, 0))
    for k in range(u.shape[0]):
        v = u[k]
        for _ in range(2 if k else 0):
            prev = u[:k]
            c = (prev.conj() * v).sum(axis=1)
            v -= (prev * c[:, None, :]).sum(axis=0)
        v /= np.sqrt((v.real**2 + v.imag**2).sum(axis=0))
    return u


def _unitary_traces(u: np.ndarray) -> np.ndarray:
    """(count, N) traces tr U^j, j = 1..N, of a column-major stack u (as
    from `_haar_unitaries`): the powers up to ceil(N/2) column by column,
    then tr U^(a+b) = sum_(i,k) U^a[i,k] U^b[k,i]."""
    N = u.shape[0]
    pw = [u]
    while 2 * len(pw) < N:
        prev = pw[-1]
        nxt = np.empty_like(u)
        for k in range(N):  # column k of prev @ u
            nxt[k] = (prev * u[k][:, None, :]).sum(axis=0)
        pw.append(nxt)
    out = np.empty((u.shape[2], N), dtype=complex)
    for j in range(1, N + 1):
        a, b = pw[(j + 1) // 2 - 1], j // 2
        out[:, j - 1] = (np.diagonal(a).sum(axis=1) if b == 0
                         else (a * pw[b - 1].transpose(1, 0, 2)).sum(axis=(0, 1)))
    return out


def _haar_angles(N: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, N) eigenphase rows of Haar unitaries.

    Ginibre draws, then per sub-block of `_HAAR_BLOCK` rows the unitary
    factor with positive R-diagonal (`_haar_unitaries`), which makes the
    sample exactly Haar rather than merely approximately invariant
    (Mezzadri, Notices AMS 2007).  The eigenvalues are the roots of
    det(z - U) = sum_j (-1)^j e_j z^(N-j), with e_j from tr U^j by Newton's
    identities; a row whose root power sums miss its traces by more than
    1e-9 N raises RootFindingDidNotConverge.  No step calls LAPACK.
    """
    z = rng.standard_normal((count, N, N)) + 1j * rng.standard_normal((count, N, N))
    z /= math.sqrt(2.0)
    sign = (-1.0) ** np.arange(N + 1)
    out = np.empty((count, N))
    for lo in range(0, count, _HAAR_BLOCK):
        traces = _unitary_traces(_haar_unitaries(z[lo : lo + _HAAR_BLOCK]))
        roots = _poly_roots(elementary_from_power(traces, N) * sign)
        zj = roots.copy()
        for j in range(N):
            if not (np.abs(zj.sum(axis=1) - traces[:, j]) <= 1e-9 * N).all():
                raise RootFindingDidNotConverge(
                    f"Haar eigenvalues miss tr U^{j + 1} by more than {1e-9 * N:g}")
            zj *= roots
        out[lo : lo + roots.shape[0]] = _phases(roots)
    return out


def haar_spectrum(N: int, rng: np.random.Generator) -> UnitarySpectrum:
    """One Haar-distributed spectrum; deterministic given the generator state."""
    if N < 1:
        raise PreconditionError("N >= 1 required")
    return UnitarySpectrum(N=N, angles=_haar_angles(N, 1, rng)[0])


def power_sums(angles: np.ndarray, m: int) -> np.ndarray:
    """p_j = tr U^j for j = 1..m; angles (..., N) -> (..., m) complex."""
    z = np.exp(1j * angles)
    out = np.empty(angles.shape[:-1] + (m,), dtype=complex)
    zj = z.copy()
    for j in range(m):
        out[..., j] = zj.sum(axis=-1)
        if j + 1 < m:
            zj *= z
    return out


def elementary_from_power(p: np.ndarray, jmax: int) -> np.ndarray:
    """Newton's identity j e_j = sum_{i<=j} (-1)^{i-1} e_{j-i} p_i; returns
    e_0..e_jmax along the last axis."""
    shape = p.shape[:-1]
    e = np.zeros(shape + (jmax + 1,), dtype=complex)
    e[..., 0] = 1.0
    for j in range(1, jmax + 1):
        acc = np.zeros(shape, dtype=complex)
        for i in range(1, j + 1):
            term = e[..., j - i] * p[..., i - 1]
            acc = acc + term if i % 2 else acc - term
        e[..., j] = acc / j
    return e


def homogeneous_from_power(p: np.ndarray, nmax: int) -> np.ndarray:
    """Newton's identity n h_n = sum_{i<=n} h_{n-i} p_i; returns h_0..h_nmax."""
    shape = p.shape[:-1]
    h = np.zeros(shape + (nmax + 1,), dtype=complex)
    h[..., 0] = 1.0
    for n in range(1, nmax + 1):
        acc = np.zeros(shape, dtype=complex)
        for i in range(1, n + 1):
            acc += h[..., n - i] * p[..., i - 1]
        h[..., n] = acc / n
    return h


def trace_functionals(spec: UnitarySpectrum, m: int):
    """(p_1..p_m, e_0..e_min(m,N), h_0..h_m): traces of powers, exterior
    powers, and symmetric powers of U."""
    if m < 1:
        raise PreconditionError("m >= 1 required")
    p = power_sums(spec.angles, m)
    e = elementary_from_power(p, min(m, spec.N))
    h = homogeneous_from_power(p, m)
    return p, e, h


# Monte Carlo machinery --------------------------------------------------------

_ANGLE_CACHE: dict[tuple[int, int, int], np.ndarray] = {}
_CACHE_SLOTS = 8


def sample_angles(N: int, samples: int, seed: int) -> np.ndarray:
    """(samples, N) Haar eigenphases, cached by (N, samples, seed)."""
    key = (N, samples, seed)
    if key not in _ANGLE_CACHE:
        if len(_ANGLE_CACHE) >= _CACHE_SLOTS:
            _ANGLE_CACHE.pop(next(iter(_ANGLE_CACHE)))
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        # batch generation to bound the (samples, N, N) workspace
        chunks = []
        step = max(1, 2_000_000 // (N * N))
        done = 0
        while done < samples:
            take = min(step, samples - done)
            chunks.append(_haar_angles(N, take, rng))
            done += take
        _ANGLE_CACHE[key] = np.concatenate(chunks, axis=0)
    return _ANGLE_CACHE[key]


def mc_integral(statistic, N: int, samples: int, seed: int = 0):
    """Haar expectation of a real statistic with its standard error.

    statistic is either a callable on UnitarySpectrum or an object with a
    vectorized .batch(angles) -> (samples,) array.  Means use numpy's
    pairwise summation, so results are reproducible for a fixed seed.
    """
    if samples < 1000:
        raise PreconditionError("samples >= 1000 required")
    angles = sample_angles(N, samples, seed)
    if hasattr(statistic, "batch"):
        vals = np.asarray(statistic.batch(angles), dtype=float)
    else:
        vals = np.array([float(statistic(UnitarySpectrum(N, a))) for a in angles])
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return mean, stderr


class PowerTraceSquared:
    """|tr U^j|^2."""

    def __init__(self, j: int):
        self.j = j

    def batch(self, angles: np.ndarray) -> np.ndarray:
        return np.abs(np.exp(1j * (self.j * angles)).sum(axis=-1)) ** 2

    def __call__(self, spec: UnitarySpectrum) -> float:
        return float(self.batch(spec.angles[None, :])[0])


class SymPowerTraceSquared:
    """|tr Sym^n U|^2."""

    def __init__(self, n: int):
        self.n = n

    def batch(self, angles: np.ndarray) -> np.ndarray:
        p = power_sums(angles, self.n)
        h = homogeneous_from_power(p, self.n)[..., -1]
        return np.abs(h) ** 2


class SecularCoefficientSquared:
    """|coefficient of u^m in det(I + u U)^k|^2, the integrand of I_k(m;N)."""

    def __init__(self, k: int, m: int):
        self.k = k
        self.m = m

    def batch(self, angles: np.ndarray) -> np.ndarray:
        N = angles.shape[-1]
        top = min(self.m, self.k * N)
        p = power_sums(angles, max(1, min(N, top)))
        e = elementary_from_power(p, min(N, top))
        # k-fold self-convolution of the secular coefficients, truncated
        c = e
        for _ in range(self.k - 1):
            L = min(top, c.shape[-1] - 1 + N) + 1
            nxt = np.zeros(c.shape[:-1] + (L,), dtype=complex)
            for j in range(min(N, top) + 1):
                lo = j
                hi = min(L, j + c.shape[-1])
                nxt[..., lo:hi] += e[..., j : j + 1] * c[..., : hi - lo]
            c = nxt
        if self.m >= c.shape[-1]:
            return np.zeros(angles.shape[:-1])
        return np.abs(c[..., self.m]) ** 2


class ProductTraceStatistic:
    """|sum_{j=1}^{n-1} tr U^j tr U^{n-j} - n tr U^n|^2 (the Lambda_2 integrand)."""

    def __init__(self, n: int):
        self.n = n

    def batch(self, angles: np.ndarray) -> np.ndarray:
        n = self.n
        p = power_sums(angles, n)
        acc = np.zeros(angles.shape[:-1], dtype=complex)
        for j in range(1, n):
            acc += p[..., j - 1] * p[..., n - j - 1]
        acc -= n * p[..., n - 1]
        return np.abs(acc) ** 2


def divisor_integral(k: int, m: int, N: int, mode: str = "closed",
                     samples: int = 100_000, seed: int = 0):
    """I_k(m;N), the divisor-correlation matrix integral over U(N).

    closed: binom(m+k^2-1, k^2-1) for m <= N, reflected once through the
    functional equation I_k(m;N) = I_k(kN-m;N), zero above kN; the k >= 3
    midrange has no published closed form and raises.  monte_carlo: the
    defining integral; returns (mean, stderr).
    """
    if k < 1 or m < 0 or N < 1:
        raise PreconditionError("need k >= 1, m >= 0, N >= 1")
    if mode == "closed":
        if m > k * N:
            return 0.0
        if m <= N:
            return float(math.comb(m + k * k - 1, k * k - 1))
        if k * N - m <= N:
            return float(math.comb(k * N - m + k * k - 1, k * k - 1))
        raise ClosedFormNotAvailable(
            f"I_{k}({m};{N}): midrange closed form unknown, use monte_carlo")
    if mode == "monte_carlo":
        return mc_integral(SecularCoefficientSquared(k, m), N, samples, seed)
    raise ValueError(f"unknown mode {mode!r}")


def rodgers_integral(n: int, N: int, mode: str = "closed",
                     samples: int = 100_000, seed: int = 0):
    """The Lambda_2 variance integral: sum_{d=1}^{min(n,N)} (2d-1)^2 in
    closed form, or the defining Monte Carlo integral."""
    if n < 2 or N < 1:
        raise PreconditionError("need n >= 2, N >= 1")
    if mode == "closed":
        return float(sum((2 * d - 1) ** 2 for d in range(1, min(n, N) + 1)))
    if mode == "monte_carlo":
        return mc_integral(ProductTraceStatistic(n), N, samples, seed)
    raise ValueError(f"unknown mode {mode!r}")
