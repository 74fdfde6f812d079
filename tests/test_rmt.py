import math

import numpy as np
import pytest

from fqx.errors import ClosedFormNotAvailable, PreconditionError, RootFindingDidNotConverge
from fqx import rmt


class TestSpectra:
    def test_unit_modulus(self):
        rng = np.random.default_rng(0)
        for N in (1, 3, 6):
            spec = rmt.haar_spectrum(N, rng)
            assert np.all(np.abs(np.abs(spec.eigenvalues()) - 1) < 1e-10)
            assert np.all((spec.angles >= 0) & (spec.angles < 2 * np.pi))

    def test_deterministic(self):
        a = rmt.haar_spectrum(4, np.random.default_rng(11))
        b = rmt.haar_spectrum(4, np.random.default_rng(11))
        assert np.allclose(a.angles, b.angles)

    def test_u1_uniform_phase(self):
        # Kolmogorov-Smirnov at the 1% level
        ang = rmt.sample_angles(1, 100_000, 5)[:, 0]
        xs = np.sort(ang) / (2 * np.pi)
        n = xs.size
        dplus = np.max(np.arange(1, n + 1) / n - xs)
        dminus = np.max(xs - np.arange(0, n) / n)
        assert max(dplus, dminus) * math.sqrt(n) < 1.63

    def test_sub_block_size_does_not_change_samples(self, monkeypatch):
        # each row's roots depend on that row alone, so QR and root finding
        # in sub-blocks of 7 rows give the same bytes as the default size
        default = rmt.sample_angles(3, 2000, 17).copy()
        rmt._ANGLE_CACHE.clear()
        monkeypatch.setattr(rmt, "_HAAR_BLOCK", 7)
        small = rmt.sample_angles(3, 2000, 17)
        assert small.tobytes() == default.tobytes()

    @pytest.mark.parametrize("N", range(1, 13))
    def test_angles_match_eigenvalues(self, N):
        # the same Ginibre draws and QR as _haar_angles, then LAPACK
        count = 300
        rng = np.random.default_rng(N)
        z = rng.standard_normal((count, N, N)) + 1j * rng.standard_normal((count, N, N))
        z /= math.sqrt(2.0)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=1, axis2=2)
        want = np.linalg.eigvals(q * (d / np.abs(d))[:, None, :])
        got = np.exp(1j * rmt._haar_angles(N, count, np.random.default_rng(N)))
        dist = np.abs(got[:, :, None] - want[:, None, :])
        assert max(dist.min(axis=2).max(), dist.min(axis=1).max()) < 1e-12

    @pytest.mark.parametrize("N", range(1, 9))
    def test_unitary_factor(self, N):
        # Z = U R with U unitary and R upper triangular, real positive diagonal,
        # also where the last column nearly repeats the first (condition
        # ~1e7), which one Gram-Schmidt pass leaves far from orthogonal
        rng = np.random.default_rng(100 + N)
        z = rng.standard_normal((500, N, N)) + 1j * rng.standard_normal((500, N, N))
        if N > 1:
            z[:50, :, -1] = z[:50, :, 0] + 1e-7 * z[:50, :, -1]
        u = rmt._haar_unitaries(z).transpose(2, 1, 0)
        uh = np.conj(u.transpose(0, 2, 1))
        assert np.abs(uh @ u - np.eye(N)).max() <= 1e-13
        r = uh @ z
        d = np.diagonal(r, axis1=1, axis2=2)
        assert (d.real > 0).all()
        assert np.abs(d.imag).max() <= 1e-13 * np.abs(z).max()
        assert np.abs(np.tril(r, -1)).max() <= 1e-13 * np.abs(z).max()

    def test_phases_fold_two_pi(self):
        # a root a rounding error below the positive real axis has the
        # phase 0, not 2 pi, which `angle % 2 pi` gives
        z = np.exp(np.array([-1e-17j, 0j, 1j * np.pi, -1e-3j]))
        assert (np.angle(z) % (2 * np.pi))[0] == 2 * np.pi
        got = rmt._phases(z)
        assert got[0] == 0.0 and got[1] == 0.0
        assert got[2] == np.pi and got[3] == 2 * np.pi - 1e-3
        for N, seed in ((1, 5), (3, 163), (4, 6)):
            ang = rmt.sample_angles(N, 100_000, seed)
            assert ((ang >= 0) & (ang < 2 * np.pi)).all()

    def test_every_row_checked_against_traces(self, monkeypatch):
        find = rmt._poly_roots

        def perturbed(rows):
            z = np.array(find(rows))
            z[z.shape[0] // 2, 0] *= np.exp(1e-6j)
            return z

        monkeypatch.setattr(rmt, "_poly_roots", perturbed)
        with pytest.raises(RootFindingDidNotConverge):
            rmt._haar_angles(4, 50, np.random.default_rng(3))

    def test_mean_trace_vanishes(self):
        ang = rmt.sample_angles(4, 100_000, 6)
        tr = np.exp(1j * ang).sum(axis=1)
        assert abs(tr.mean()) <= 5 / math.sqrt(100_000)


class TestTraceFunctionals:
    def test_identity_matrix(self):
        spec = rmt.UnitarySpectrum(4, np.zeros(4))
        p, e, h = rmt.trace_functionals(spec, 6)
        assert np.allclose(e.real, [math.comb(4, j) for j in range(5)])
        assert np.allclose(h.real, [math.comb(n + 3, 3) for n in range(7)])
        assert np.allclose(p.real, 4.0)

    def test_secular_identity_against_poly_expansion(self):
        rng = np.random.default_rng(1)
        for N in range(1, 9):
            for _ in range(12):
                spec = rmt.haar_spectrum(N, rng)
                _, e, _ = rmt.trace_functionals(spec, 2 * N)
                want = np.poly(-spec.eigenvalues())  # coeff of u^j at index j
                assert np.allclose(e, want[: N + 1], atol=1e-10)

    def test_homogeneous_series_inverse(self):
        # (sum e_j (-u)^j) * (sum h_n u^n) = 1, checked by truncated convolution
        rng = np.random.default_rng(2)
        for N in (2, 5):
            spec = rmt.haar_spectrum(N, rng)
            m = 8
            _, e, h = rmt.trace_functionals(spec, m)
            for n in range(1, m + 1):
                acc = 0j
                for j in range(0, n + 1):
                    if j <= N:
                        acc += (-1) ** j * e[j] * h[n - j]
                assert abs(acc) < 1e-8

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            rmt.trace_functionals(rmt.UnitarySpectrum(2, np.zeros(2)), 0)


class TestMonteCarlo:
    def test_sample_cache_reused(self):
        a = rmt.sample_angles(3, 2000, 9)
        b = rmt.sample_angles(3, 2000, 9)
        assert a is b

    def test_min_samples(self):
        with pytest.raises(PreconditionError):
            rmt.mc_integral(rmt.PowerTraceSquared(1), 2, 10)

    def test_power_trace_moment(self):
        # Diaconis-Shahshahani: E|tr U^j|^2 = min(j, N)
        for j, N in ((3, 5), (6, 4), (2, 2)):
            m, s = rmt.mc_integral(rmt.PowerTraceSquared(j), N, 20_000, seed=1)
            assert abs(m - min(j, N)) < 4 * s

    def test_sym_power_moment(self):
        m, s = rmt.mc_integral(rmt.SymPowerTraceSquared(5), 3, 20_000, seed=1)
        assert abs(m - 1) < 4 * s

    def test_callable_and_batch_agree(self):
        stat = rmt.PowerTraceSquared(2)
        slow = rmt.mc_integral(lambda spec: stat(spec), 3, 1000, seed=4)
        fast = rmt.mc_integral(stat, 3, 1000, seed=4)
        assert np.allclose(slow, fast)


class TestDivisorIntegral:
    def test_closed_values(self):
        assert rmt.divisor_integral(2, 3, 5) == 20.0
        assert rmt.divisor_integral(2, 9, 5) == 4.0  # reflected to I_2(1;5)
        assert rmt.divisor_integral(2, 11, 5) == 0.0  # above kN
        assert rmt.divisor_integral(1, 4, 9) == 1.0

    def test_midrange_unavailable(self):
        with pytest.raises(ClosedFormNotAvailable):
            rmt.divisor_integral(3, 5, 3)

    def test_monte_carlo_matches_closed(self):
        for k, m, N, want in ((2, 3, 5, 20.0), (2, 9, 5, 4.0)):
            got, s = rmt.divisor_integral(k, m, N, mode="monte_carlo",
                                          samples=20_000, seed=2)
            assert abs(got - want) < 4 * s

    def test_functional_equation_symmetry(self):
        for m in range(0, 10):
            a, sa = rmt.divisor_integral(3, m, 3, mode="monte_carlo",
                                         samples=5_000, seed=4)
            b, sb = rmt.divisor_integral(3, 9 - m, 3, mode="monte_carlo",
                                         samples=5_000, seed=4)
            assert abs(a - b) <= 4 * math.hypot(max(sa, 1e-12), max(sb, 1e-12)) + 1e-12


class TestRodgersIntegral:
    def test_closed_values(self):
        assert rmt.rodgers_integral(6, 2) == 10.0
        assert rmt.rodgers_integral(2, 1) == 1.0
        assert rmt.rodgers_integral(6, 3) == 35.0
        # cubic form (4N^3 - N)/3 when N <= n
        for N in (1, 2, 3, 4):
            assert rmt.rodgers_integral(9, N) == (4 * N**3 - N) / 3

    def test_monte_carlo_matches_closed(self):
        got, s = rmt.rodgers_integral(6, 3, mode="monte_carlo",
                                      samples=20_000, seed=3)
        assert abs(got - 35.0) < 4 * s
