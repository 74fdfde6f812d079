"""Cross-checks of the vectorized engine against the scalar reference."""

import numpy as np
import pytest

from fqx import batch
from fqx.ensembles import index_to_monic
from fqx.field import make_field
from fqx.polyring import (
    Poly,
    _resultant,
    cycle_type,
    discriminant,
    gcd,
    is_irreducible,
    mobius,
    powmod,
    von_mangoldt,
)


def row_poly(ctx, row, monic=True):
    c = [int(v) for v in row]
    if monic:
        c.append(1)
    return Poly(ctx, c)


def rand_block(q, n, rows, seed):
    return np.random.default_rng(seed).integers(0, q, size=(rows, n)).astype(np.int64)


@pytest.mark.parametrize("q,n", [(3, 4), (5, 3), (2, 6)])
def test_monic_block_matches_index(q, n):
    ctx = make_field(q)
    blk = batch.monic_block(ctx, n, 7, 40)
    for i, idx in enumerate(range(7, 40)):
        assert row_poly(ctx, blk[i]) == index_to_monic(ctx, n, idx)
    assert (batch.block_index(blk, q) == np.arange(7, 40)).all()


@pytest.mark.parametrize("q", [2, 3, 7, 31])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_modular_kernels(q, n):
    ctx = make_field(q)
    rows = 40
    F = rand_block(q, n, rows, seed=n * q)
    A = rand_block(q, n, rows, seed=n * q + 1)
    B = rand_block(q, n, rows, seed=n * q + 2)
    got = batch.block_mulmod(A.copy(), B.copy(), F, q)
    xq = batch.x_power_q_mod(F, q)
    frob = batch.frobenius_mod(F, q, 3)
    x = None
    for i in range(rows):
        f = row_poly(ctx, F[i])
        x = Poly.x(ctx)
        a = row_poly(ctx, A[i], monic=False)
        b = row_poly(ctx, B[i], monic=False)
        assert row_poly(ctx, got[i], monic=False) == (a * b) % f
        assert row_poly(ctx, xq[i], monic=False) == powmod(x, q, f)
        for d, g in enumerate(frob, start=1):
            assert row_poly(ctx, g[i], monic=False) == powmod(x, q**d, f)


@pytest.mark.parametrize("q", [3, 7, 31])
def test_count_roots(q):
    ctx = make_field(q)
    F = rand_block(q, 4, 150, seed=q)
    cr = batch.count_roots(F, q)
    for i in range(150):
        f = row_poly(ctx, F[i])
        assert cr[i] == sum(1 for a in range(q) if f.evaluate(a) == 0)


@pytest.mark.parametrize("q,n", [(3, 2), (3, 5), (5, 3), (31, 5)])
def test_batch_resultant(q, n):
    ctx = make_field(q)
    F = rand_block(q, n, 80, seed=q * n)
    G = rand_block(q, n, 80, seed=q * n + 5)
    res = batch.batch_resultant(F, G, q)
    for i in range(80):
        assert res[i] == _resultant(row_poly(ctx, F[i]), row_poly(ctx, G[i], monic=False)) % q


@pytest.mark.parametrize("q", [3, 5, 7, 31])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_batch_disc_and_mobius(q, n):
    ctx = make_field(q)
    rows = min(q**n, 250)
    F = batch.monic_block(ctx, n, 0, rows)
    dd = batch.batch_disc(F.copy(), q)
    mm = batch.batch_mobius(F.copy(), ctx)
    for i in range(rows):
        f = row_poly(ctx, F[i])
        assert dd[i] == discriminant(f)
        assert mm[i] == mobius(f)


def test_batch_mobius_rejects_even_q():
    ctx = make_field(2)
    with pytest.raises(ValueError):
        batch.batch_mobius(np.zeros((1, 2), dtype=np.int64), ctx)


@pytest.mark.parametrize("q,nmax", [(2, 6), (3, 5), (5, 4), (7, 3)])
def test_batch_irreducible_exhaustive(q, nmax):
    ctx = make_field(q)
    for n in range(1, nmax + 1):
        F = batch.monic_block(ctx, n, 0, q**n)
        got = batch.batch_is_irreducible(F, ctx)
        for i in range(q**n):
            assert got[i] == is_irreducible(row_poly(ctx, F[i])), (q, n, i)


def test_batch_irreducible_large_degree_sample():
    ctx = make_field(7)
    F = batch.monic_block(ctx, 8, 100_000, 104_000)
    got = batch.batch_is_irreducible(F, ctx)
    for i in range(0, 4000, 37):
        assert got[i] == is_irreducible(row_poly(ctx, F[i]))


@pytest.mark.parametrize("q", [2, 3, 31, 65521])
def test_batch_gcd_degree(q):
    ctx = make_field(q)
    W = 7
    rng = np.random.default_rng(q)
    A = rng.integers(0, q, size=(250, W)).astype(np.int64)
    B = rng.integers(0, q, size=(250, W)).astype(np.int64)
    # zero, constant and equal rows, and random rows of lower degree
    A[:4] = 0
    B[0] = 0
    A[4:8, 1:] = 0
    B[8] = A[8]
    A[10:60, 3:] = 0
    B[60:110, 2:] = 0
    A[110:130] = B[110:130]
    A[110:130, 0] = (A[110:130, 0] + 1) % q
    keep = ~((A == 0).all(1) & (B == 0).all(1))
    A, B = A[keep], B[keep]

    def degs(M):
        nz = M != 0
        return np.where(nz.any(1), W - 1 - np.argmax(nz[:, ::-1], 1), -1)

    got = batch.batch_gcd_degree(A.copy(), degs(A), B.copy(), degs(B), q)
    for i in range(A.shape[0]):
        a = row_poly(ctx, A[i], monic=False)
        b = row_poly(ctx, B[i], monic=False)
        assert got[i] == gcd(a, b).degree


@pytest.mark.parametrize("q,n,m", [(3, 5, 3), (3, 4, 4), (3, 2, 4), (31, 6, 1), (31, 6, 3)])
def test_reduce_mod(q, n, m):
    ctx = make_field(q)
    F = rand_block(q, n, 80, seed=n * m * q)
    Qc = rand_block(q, m, 1, seed=9)[0]
    Q = Poly(ctx, [int(v) for v in Qc] + [1])
    got = batch.reduce_mod(F, Qc, q)
    for i in range(80):
        assert row_poly(ctx, got[i], monic=False) == row_poly(ctx, F[i]) % Q


@pytest.mark.parametrize("q,w,m", [(3, 5, 3), (5, 2, 3), (7, 4, 4), (31, 6, 2)])
def test_reduce_rows_nonmonic(q, w, m):
    ctx = make_field(q)
    R = rand_block(q, w, 60, seed=w * m * q)
    Qc = rand_block(q, m, 1, seed=5)[0]
    Q = Poly(ctx, [int(v) for v in Qc] + [1])
    got = batch.reduce_rows(R.copy(), Qc, q)
    assert got.shape == (60, m)
    for i in range(60):
        assert row_poly(ctx, got[i], monic=False) == row_poly(ctx, R[i], monic=False) % Q


def test_index_rows_inverts_block_index():
    idx = np.random.default_rng(3).integers(0, 7**5, size=50)
    rows = batch.index_rows(idx, 5, 7)
    assert (batch.block_index(rows, 7) == idx).all()
    assert (rows == batch.monic_block(make_field(7), 5, 0, 7**5)[idx]).all()


@pytest.mark.parametrize("q,nmax", [(2, 6), (3, 5), (5, 4)])
def test_batch_von_mangoldt(q, nmax):
    ctx = make_field(q)
    for n in range(1, nmax + 1):
        F = batch.monic_block(ctx, n, 0, q**n)
        lam = batch.batch_von_mangoldt(F, ctx, 0)
        assert lam.sum() == q**n  # prime polynomial theorem, exact
        for i in range(q**n):
            assert lam[i] == von_mangoldt(row_poly(ctx, F[i]))


def test_batch_von_mangoldt_sharded():
    # class sums must not depend on the chunk boundaries
    ctx = make_field(5)
    n = 4
    pp = batch.proper_prime_power_indices(ctx, n)
    whole = batch.batch_von_mangoldt(batch.monic_block(ctx, n, 0, 5**n), ctx, 0, pp)
    pieces = [
        batch.batch_von_mangoldt(batch.monic_block(ctx, n, s, min(s + 97, 5**n)), ctx, s, pp)
        for s in range(0, 5**n, 97)
    ]
    assert (np.concatenate(pieces) == whole).all()


@pytest.mark.parametrize("q,nmax", [(2, 5), (3, 5), (5, 4)])
def test_batch_cycle_types_exhaustive(q, nmax):
    ctx = make_field(q)
    for n in range(1, nmax + 1):
        F = batch.monic_block(ctx, n, 0, q**n)
        ct = batch.batch_cycle_types(F, ctx)
        for i in range(q**n):
            assert tuple(int(v) for v in ct[i]) == cycle_type(row_poly(ctx, F[i])).lam


def test_batch_cycle_types_q31_sample():
    ctx = make_field(31)
    F = batch.monic_block(ctx, 5, 12345, 12345 + 2000)
    ct = batch.batch_cycle_types(F, ctx)
    for i in range(0, 2000, 7):
        assert tuple(int(v) for v in ct[i]) == cycle_type(row_poly(ctx, F[i])).lam


@pytest.mark.parametrize("q,nmax", [(2, 6), (3, 5), (5, 4), (7, 4), (11, 3), (13, 3)])
def test_batch_lambda2_exhaustive(q, nmax):
    # covers both the full-profile route (p <= n) and the radical route (p > n)
    from fqx.polyring import von_mangoldt2

    ctx = make_field(q)
    for n in range(1, nmax + 1):
        F = batch.monic_block(ctx, n, 0, q**n)
        l2 = batch.batch_lambda2(F, ctx)
        assert l2.sum() == (2 * n - 1) * q**n  # exact second-order mass
        for i in range(q**n):
            assert l2[i] == von_mangoldt2(row_poly(ctx, F[i]))


def test_batch_lambda2_large_q_sample():
    from fqx.polyring import von_mangoldt2

    ctx = make_field(31)
    F = batch.monic_block(ctx, 7, 987654, 987654 + 600)
    l2 = batch.batch_lambda2(F, ctx)
    for i in range(0, 600, 5):
        assert l2[i] == von_mangoldt2(row_poly(ctx, F[i]))


@pytest.mark.parametrize("q", [2, 3, 5, 31])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_batch_divisor_r_small(q, r):
    from fqx.polyring import divisor_k

    ctx = make_field(q)
    for n in (1, 2, 3):
        stop = min(q**n, 3000)
        F = batch.monic_block(ctx, n, 0, stop)
        dr = batch.batch_divisor_r_small(F, ctx, r)
        for i in range(stop):
            assert dr[i] == divisor_k(row_poly(ctx, F[i]), r)


def test_batch_divisor_r_degree_cap():
    ctx = make_field(5)
    with pytest.raises(ValueError):
        batch.batch_divisor_r_small(batch.monic_block(ctx, 4, 0, 10), ctx, 2)


@pytest.mark.parametrize("q,n", [(2, 5), (3, 6), (5, 4), (7, 6), (101, 3)])
def test_batch_divisor_k_vs_scalar(q, n):
    from fqx.polyring import divisor_k

    ctx = make_field(q)
    F = rand_block(q, n, 250, seed=q * n)
    for k in (1, 2, 3, 4):
        dk = batch.batch_divisor_k(F, ctx, k)
        for i in range(0, 250, 7):
            assert dk[i] == divisor_k(row_poly(ctx, F[i]), k)


def test_batch_divisor_k_matches_shape_route():
    for q, n in [(3, 2), (5, 3), (7, 3)]:
        ctx = make_field(q)
        F = batch.monic_block(ctx, n, 0, q**n)
        for k in (2, 3, 4):
            assert (batch.batch_divisor_k(F, ctx, k)
                    == batch.batch_divisor_r_small(F, ctx, k)).all()


def test_exponent_counts_profile():
    # x^2 (x+1)^3 over F_5: one prime squared, one cubed, degree 5
    ctx = make_field(5)
    from fqx.polyring import Poly

    x = Poly.x(ctx)
    one = Poly.one(ctx)
    f = x * x * (x + one) * (x + one) * (x + one)
    blk = np.array([f.coeffs[:-1]], dtype=np.int64)
    prof = batch.batch_exponent_counts(blk, ctx)
    assert prof[0].tolist() == [0, 0, 1, 1, 0, 0]
    # d_k reconstruction: binom(2+k-1,k-1) binom(3+k-1,k-1)
    assert batch.divisor_k_from_counts(prof, 2)[0] == 3 * 4
    assert batch.divisor_k_from_counts(prof, 3)[0] == 6 * 10


def test_exponent_counts_residual_prime():
    # irreducible quartic over F_3 has profile e=1 once, from the residual
    ctx = make_field(3)
    F = batch.monic_block(ctx, 4, 0, 81)
    prof = batch.batch_exponent_counts(F, ctx)
    irr = batch.batch_is_irreducible(F, ctx)
    assert ((prof[:, 1] == 1) & (prof[:, 2:].sum(axis=1) == 0))[irr].all()
    # omega and Omega from the profile against the factor counts
    from fqx.polyring import factor as scalar_factor

    omega = prof.sum(axis=1)
    Omega = (prof * np.arange(5)).sum(axis=1)
    for i in range(0, 81, 5):
        fac = scalar_factor(row_poly(ctx, F[i]))
        assert omega[i] == len(fac.factors)
        assert Omega[i] == sum(e for _, e in fac.factors)


def _check_profile_against_factor(ctx, F):
    """batch_exponent_counts and batch_cycle_types of the rows F against
    the scalar factorization, row by row."""
    from fqx.polyring import factor as scalar_factor

    n = F.shape[1]
    counts = batch.batch_exponent_counts(F, ctx)
    types = batch.batch_cycle_types(F, ctx)
    for i in range(F.shape[0]):
        want_counts = [0] * (n + 1)
        want_types = [0] * n
        for P, e in scalar_factor(row_poly(ctx, F[i])).factors:
            want_counts[e] += 1
            want_types[P.degree - 1] += e
        assert counts[i].tolist() == want_counts
        assert types[i].tolist() == want_types


@pytest.mark.parametrize("q,nmax", [(2, 12), (3, 8)])
def test_gcd_profile_exhaustive(q, nmax):
    # all of M_n, exponents >= p included (x^8 and (x^2+x+1)^3 over F_2)
    ctx = make_field(q)
    for n in range(1, nmax + 1):
        _check_profile_against_factor(ctx, batch.monic_block(ctx, n, 0, q**n))


@pytest.mark.parametrize("q,n", [(37, 5), (101, 4)])
def test_gcd_profile_seeded_rows(q, n):
    ctx = make_field(q)
    rows = np.random.default_rng(q * n).integers(0, q**n, size=1500)
    F = batch.index_rows(rows, n, q)
    # and some squareful rows, which random rows rarely are
    x, one = Poly.x(ctx), Poly.one(ctx)
    extra = [x**n, (x + one) ** n, x * x * (x + one) ** (n - 2)]
    F = np.concatenate([F, np.array([f.coeffs[:n] for f in extra], dtype=np.int64)])
    _check_profile_against_factor(ctx, F)


def test_gcd_profile_chunks_and_empty_blocks(monkeypatch):
    ctx = make_field(5)
    F = batch.monic_block(ctx, 4, 0, 5**4)
    readers = (batch.batch_exponent_counts, batch.batch_cycle_types, batch.batch_lambda2)
    whole = [r(F, ctx) for r in readers]
    monkeypatch.setattr(batch, "_PROFILE_CELLS", 100)  # chunks of 6 rows
    assert all((r(F, ctx) == w).all() for r, w in zip(readers, whole))
    assert [r(F[:0], ctx).shape for r in readers] == [(0, 5), (0, 4), (0,)]


@pytest.mark.parametrize("k", [600, 1000])
def test_divisor_k_exact_past_int64(k):
    # d_k of M_8 over F_3 leaves int64 for these k; the values must stay
    # exact rather than wrap (k=600) or raise OverflowError (k=1000)
    from fqx.polyring import divisor_k

    ctx = make_field(3)
    F = batch.monic_block(ctx, 8, 0, 3**8)
    dk = batch.batch_divisor_k(F, ctx, k)
    assert all(v > 0 for v in dk)
    if k == 600:
        assert dk[18] == 236013939028812000000
    for i in list(range(0, 3**8, 23)) + [18]:
        assert dk[i] == divisor_k(row_poly(ctx, F[i]), k)
    sieved = np.concatenate([c for _, c in batch.sieve_profiles(ctx, 8, 3**4)])
    assert list(batch.divisor_k_from_counts(sieved, k)) == list(dk)


def test_divisor_k_stays_int64_when_it_fits():
    ctx = make_field(3)
    F = batch.monic_block(ctx, 8, 0, 3**8)
    assert batch.batch_divisor_k(F, ctx, 3).dtype == np.int64


# exponent-profile sieve --------------------------------------------------------


def _sieved(ctx, n, rows):
    segments = list(batch.sieve_profiles(ctx, n, rows))
    assert [start for start, _ in segments] == list(range(0, ctx.p**n, rows))
    assert all(c.shape == (rows, n + 1) for _, c in segments)
    return np.concatenate([c for _, c in segments])


SIEVE_CASES = ([(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 9)]
               + [(5, n) for n in range(1, 6)] + [(7, n) for n in range(1, 5)])


@pytest.mark.parametrize("q,n", SIEVE_CASES)
def test_sieve_profile_matches_trial_division(q, n):
    ctx = make_field(q)
    ref = batch.batch_exponent_counts(batch.monic_block(ctx, n, 0, q**n), ctx)
    # one segment, segments of q^(n-1) rows, about sqrt(q^n) rows, and q rows
    for s in sorted({0, 1, n // 2, n - 1}):
        assert (_sieved(ctx, n, q ** (n - s)) == ref).all()


@pytest.mark.parametrize("q,n,s", [(2, 8, 1), (2, 8, 6), (3, 6, 3), (5, 5, 2), (7, 4, 3)])
def test_sieve_runs_both_branches(q, n, s):
    # dense tables for cofactor degree m >= s, listed multiples for m < s
    ctx = make_field(q)
    sv = batch.sieve_tables(ctx, n, q ** (n - s))
    assert sv.s == s
    assert all(n - e * d >= s for d, e, *_ in sv.dense) and sv.dense
    assert all(n - e * d < s for d, e, _ in sv.listed) and sv.listed
    ref = batch.batch_exponent_counts(batch.monic_block(ctx, n, 0, q**n), ctx)
    assert (_sieved(ctx, n, q ** (n - s)) == ref).all()


def test_sieve_rejects_unaligned_segments():
    with pytest.raises(ValueError):
        next(batch.sieve_profiles(make_field(3), 4, 10))


@pytest.mark.parametrize("q,n", [(2, 8), (3, 6), (5, 4), (7, 4)])
def test_sieve_readouts_match_references(q, n):
    from fqx.polyring import divisor_k

    ctx = make_field(q)
    counts = _sieved(ctx, n, q ** (n - 2))
    F = batch.monic_block(ctx, n, 0, q**n)
    assert (batch.von_mangoldt_from_counts(counts)
            == batch.batch_von_mangoldt(F, ctx, 0)).all()
    polys = [row_poly(ctx, row) for row in F]
    assert list(batch.mobius_from_counts(counts)) == [mobius(f) for f in polys]
    for k in (2, 3):
        assert list(batch.divisor_k_from_counts(counts, k)) == [divisor_k(f, k) for f in polys]


@pytest.mark.parametrize("q,n", [(13, 6), (37, 5), (101, 4), (2, 26)])
def test_sieve_tables_fit_one_segment(q, n):
    # at the experiments' shard size no sieve array outgrows one segment
    from fqx.experiments import _SHARD

    rows = q**n
    while rows > _SHARD:
        rows //= q
    sv = batch.sieve_tables(make_field(q), n, rows)
    assert sv.s > 0
    for _, _, Q, low, high in sv.dense:
        assert Q.shape[0] <= rows and low.size <= rows
        assert high.shape[:-1] == low.shape
    for _, _, idx in sv.listed:
        assert idx.size <= rows
