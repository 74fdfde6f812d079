"""Experiment-layer tests.

Exact identities are asserted with zero tolerance; statistical agreement
uses the tolerances stated in each experiment's contract.  The cross-module
test at the bottom rebuilds interval Mobius sums from Dirichlet character
sums, tying the counting engine to the L-function module.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from fqx.batch import monic_block
from fqx.dirichlet import char_eval, list_characters, build_unit_group, m_sum
from fqx.errors import (
    BudgetExceeded,
    DegreeOutOfRange,
    DuplicateShifts,
    EvenCharacteristic,
    InvalidPartition,
    InvalidShiftTuple,
    NotCoprime,
    NotSquarefree,
    PreconditionError,
    ZeroShift,
)
from fqx.experiments import (
    ExperimentReport,
    ShiftTuple,
    cauchy_probability,
    euler_phi_poly,
    exp_ap_primes,
    exp_chowla,
    exp_cycle_census,
    exp_divisor_corr,
    exp_interval_cycles,
    exp_interval_primes,
    exp_joint_cycles,
    exp_prime_count,
    exp_twin,
    exp_var_G,
    exp_var_divisor,
    exp_var_lambda2,
    exp_var_mobius,
    exp_var_psi,
    necklace_count,
    partitions,
)
from fqx import experiments
from fqx.experiments import _class_sums, _divisor2_interval_sums, _divisor_r_rows, _scan
from fqx.field import make_field
from fqx.polyring import CycleType, Poly, cycle_type, divisor_k, poly_from_string
from fqx.rmt import divisor_integral


def P(q, s):
    return poly_from_string(make_field(q), s)


class TestHelpers:
    def test_partition_counts(self):
        # partition numbers 1, 2, 3, 5, 7, 11
        for n, expected in [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11)]:
            assert len(list(partitions(n))) == expected

    def test_cauchy_measure_sums_to_one(self):
        for n in range(1, 8):
            assert sum(cauchy_probability(lam) for lam in partitions(n)) == 1

    def test_necklace_small(self):
        # q=2: 2, 1, 2, 3, 6, 9; q=3 degree 2: (9-3)/2 = 3
        assert [necklace_count(2, n) for n in range(1, 7)] == [2, 1, 2, 3, 6, 9]
        assert necklace_count(3, 2) == 3

    def test_euler_phi(self):
        assert euler_phi_poly(P(3, "0,1")) == 2
        assert euler_phi_poly(P(3, "0,0,1")) == 6
        assert euler_phi_poly(P(5, "0,1") * P(5, "1,1")) == 16

    def test_shift_tuple_validation(self):
        ctx = make_field(5)
        with pytest.raises(DuplicateShifts):
            ShiftTuple((Poly.one(ctx), Poly.one(ctx)))
        with pytest.raises(InvalidShiftTuple):
            ShiftTuple((Poly.one(ctx),), (3,))
        with pytest.raises(InvalidShiftTuple):
            ShiftTuple((Poly.one(ctx), Poly.zero(ctx)), (1,))
        st = ShiftTuple((Poly.zero(ctx), Poly.one(ctx)), (1, 2))
        assert st.r == 2 and st.exps() == (1, 2)
        with pytest.raises(InvalidShiftTuple):
            st.check_degrees(0)


class TestScan:
    """The shard generator every experiment walks M_n with, at a shard size
    small enough that every scan crosses many shard boundaries."""

    @pytest.fixture(autouse=True)
    def small_shards(self, monkeypatch):
        monkeypatch.setattr(experiments, "_SHARD", 7)

    def test_exhaustive_covers_index_range_in_order(self):
        ctx = make_field(3)
        shards = list(_scan(ctx, 4, 10**6))
        assert all(idx.size <= 7 for _, idx in shards)
        idx = np.concatenate([idx for _, idx in shards])
        assert (idx == np.arange(3**4)).all()
        rows = np.concatenate([rows for rows, _ in shards])
        assert (rows == monic_block(ctx, 4, 0, 3**4)).all()

    @pytest.mark.parametrize("h", [0, 1])
    def test_class_shards_hold_whole_classes_in_order(self, h):
        ctx = make_field(3)
        H = 3 ** (h + 1)
        classes = np.array([0, 2, 3, 5, 8], dtype=np.int64)
        shards = list(_scan(ctx, 4, 10**6, classes=classes, h=h))
        assert len(shards) > 1
        for rows, idx in shards:
            assert idx.size % H == 0 and idx.size <= max(7, H)
            assert (rows == monic_block(ctx, 4, 0, 3**4)[idx]).all()
        idx = np.concatenate([idx for _, idx in shards])
        want = np.concatenate([np.arange(c * H, (c + 1) * H) for c in classes])
        assert (idx == want).all()

    def test_sampled_shards_follow_the_seeded_stream(self):
        q, n, samples, seed = 5, 4, 23, 9
        ctx = make_field(q)
        rng = np.random.default_rng(seed)
        shards = list(_scan(ctx, n, 0, samples=samples, seed=seed))
        assert [idx.size for _, idx in shards] == [7, 7, 7, 2]
        for rows, idx in shards:
            assert (idx == rng.integers(0, q**n, size=idx.size)).all()
            assert (rows == monic_block(ctx, n, 0, q**n)[idx]).all()
        one_draw = np.random.default_rng(seed).integers(0, q**n, size=samples)
        assert (np.concatenate([idx for _, idx in shards]) == one_draw).all()

    def test_over_budget_raises_before_any_shard(self):
        ctx = make_field(3)
        with pytest.raises(BudgetExceeded):
            _scan(ctx, 4, 80)
        with pytest.raises(BudgetExceeded):
            _scan(ctx, 4, 26, classes=np.arange(3), h=1)
        assert sum(idx.size for _, idx in _scan(ctx, 4, 81)) == 81

    def test_experiments_independent_of_shard_size(self, monkeypatch):
        ctx = make_field(5)
        st = ShiftTuple((Poly.zero(ctx), Poly.one(ctx)))
        calls = [
            lambda: exp_var_psi(5, 4, 1),
            lambda: exp_var_psi(5, 4, 0, mode="sampled", intervals=6, seed=2),
            lambda: exp_chowla(5, 3, st, mode="sampled", samples=40, seed=1),
            lambda: exp_var_G(5, 4, P(5, "1,1") * P(5, "2,1")),
        ]
        small = [f().to_dict() for f in calls]
        monkeypatch.setattr(experiments, "_SHARD", 400_000)
        for d, f in zip(small, calls):
            big = f().to_dict()
            d.pop("millis"), big.pop("millis")
            assert d == big


class TestSieveRoute:
    """The exhaustive scans of the seven experiments that read Lambda,
    irreducibility, mu or d_k in index order take them from the sieve's
    segment profiles; the row kernels are their independent cross-check."""

    @staticmethod
    def calls():
        return [
            lambda: exp_prime_count(3, 6),
            lambda: exp_interval_primes(3, 6, 1, mode="exhaustive"),
            lambda: exp_interval_primes(3, 6, 4, mode="exhaustive"),
            lambda: exp_var_psi(3, 6, 0),
            lambda: exp_var_psi(3, 6, 3),
            lambda: exp_var_mobius(3, 6, 1),
            lambda: exp_var_mobius(3, 6, 4),
            lambda: exp_var_divisor(3, 6, 1, k=3),
            lambda: exp_var_divisor(3, 6, 3, k=2),
            lambda: exp_var_G(3, 6, P(3, "1,0,1")),
            lambda: exp_ap_primes(3, 6, P(3, "1,1"), P(3, "2")),
        ]

    @staticmethod
    def report(f):
        d = f().to_dict()
        d.pop("millis")
        return d

    def test_reports_independent_of_segment_size(self, monkeypatch):
        whole = [self.report(f) for f in self.calls()]
        # segments of 9 rows (s = 4): classes with h + 1 > 2 span segments
        monkeypatch.setattr(experiments, "_SHARD", 9)
        assert [self.report(f) for f in self.calls()] == whole

    def test_no_row_kernel_on_the_exhaustive_route(self, monkeypatch):
        def kernel(*args, **kwargs):
            raise AssertionError("row kernel called on an exhaustive scan")

        for name in ("batch_is_irreducible", "batch_mobius", "batch_exponent_counts",
                     "batch_divisor_k", "proper_prime_power_indices"):
            monkeypatch.setattr(experiments._batch, name, kernel)
        for f in self.calls():
            f()

    def test_over_budget_raises_before_the_sieve(self, monkeypatch):
        sieved = []
        real = experiments._batch.sieve_profiles

        def spy(*args):
            sieved.append(args)
            return real(*args)

        monkeypatch.setattr(experiments._batch, "sieve_profiles", spy)
        small = [
            lambda: exp_prime_count(3, 6, budget=700),
            lambda: exp_interval_primes(3, 6, 1, mode="exhaustive", budget=700),
            lambda: exp_var_psi(3, 6, 0, budget=700),
            lambda: exp_var_mobius(3, 6, 1, budget=700),
            lambda: exp_var_divisor(3, 6, 1, k=3, budget=700),
            lambda: exp_var_G(3, 6, P(3, "1,0,1"), budget=700),
            lambda: exp_ap_primes(3, 6, P(3, "1,1"), P(3, "2"), budget=700),
        ]
        for f in small:
            with pytest.raises(BudgetExceeded):
                f()
        assert sieved == []
        for f in self.calls():
            f()
        assert len(sieved) == len(self.calls())

    @pytest.mark.parametrize("q,n,h", [(3, 6, 1), (5, 4, 0), (3, 5, 3)])
    def test_sieve_sums_equal_kernel_sums(self, q, n, h):
        everything = q ** (n - h - 1)
        for exp, kwargs in ((exp_var_psi, {}), (exp_var_mobius, {}),
                            (exp_var_divisor, {"k": 3}), (exp_interval_primes, {})):
            sieve = exp(q, n, h, mode="exhaustive", **kwargs)
            kernel = exp(q, n, h, mode="sampled", intervals=everything, **kwargs)
            assert kernel.samples == everything
            for key in ("variance_exact", "mean_exact", "mean_square_exact"):
                assert sieve.extra.get(key) == kernel.extra.get(key)
            if exp is exp_interval_primes:
                assert sieve.extra["total_count"] == sum(kernel.extra["counts"])

    @pytest.mark.parametrize("k", [600, 1000])
    def test_divisor_sums_exact_past_int64(self, k):
        rep = exp_var_divisor(3, 8, 6, k=k)
        assert rep.extra["mean_matches_identity"] is True
        ctx = make_field(3)
        sums = _class_sums(ctx, 8, 1, None, None, 10**6,
                           lambda c: experiments._batch.divisor_k_from_counts(c, k))
        rows = _class_sums(ctx, 8, 1,
                           lambda blk, idx: experiments._batch.batch_divisor_k(blk, ctx, k),
                           np.arange(3**6), 10**6)
        assert list(sums) == list(rows)
        assert sum(sums) == 3**8 * math.comb(8 + k - 1, k - 1)


class TestSampleCounts:
    def test_zero_or_negative_counts_rejected(self):
        ctx = make_field(5)
        st = ShiftTuple((Poly.zero(ctx), Poly.one(ctx)))
        calls = [
            lambda c: exp_var_psi(5, 4, 1, mode="sampled", intervals=c),
            lambda c: exp_var_mobius(5, 4, 1, mode="sampled", intervals=c),
            lambda c: exp_var_lambda2(5, 4, 1, mode="sampled", intervals=c),
            lambda c: exp_var_divisor(5, 4, 1, mode="sampled", intervals=c),
            lambda c: exp_interval_primes(5, 4, 1, intervals=c),
            lambda c: exp_interval_cycles(5, 4, 1, (0, 0, 0, 1), intervals=c),
            lambda c: exp_chowla(5, 4, st, mode="sampled", samples=c),
            lambda c: exp_divisor_corr(5, 4, 2, Poly.one(ctx), mode="sampled", samples=c),
        ]
        for f in calls:
            for count in (0, -3):
                with pytest.raises(PreconditionError, match=">= 1"):
                    f(count)


class TestPrimeCount:
    def test_exhaustive_matches_necklace(self):
        for q, n in [(2, 6), (3, 5), (5, 4), (7, 3)]:
            rep = exp_prime_count(q, n)
            assert rep.extra["routes_agree"]
            assert rep.empirical["pi"] == necklace_count(q, n)
            assert rep.verdict is True

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            exp_prime_count(7, 10, budget=10**6)

    def test_necklace_only(self):
        rep = exp_prime_count(3, 12, mode="necklace_only")
        assert rep.empirical["pi"] == necklace_count(3, 12)
        assert "routes_agree" not in rep.extra


class TestIntervalPrimes:
    def test_exhaustive_partition_of_primes(self):
        rep = exp_interval_primes(5, 4, 1, mode="exhaustive")
        assert rep.extra["prime_count_matches_necklace"]
        assert rep.extra["total_count"] == necklace_count(5, 4)

    def test_sampled_counts_are_interval_counts(self):
        q, n, h = 5, 4, 1
        rep = exp_interval_primes(q, n, h, mode="sampled", intervals=3, seed=7)
        ctx = make_field(q)
        H = q ** (h + 1)
        from fqx.batch import batch_is_irreducible

        for cls, cnt in zip(rep.extra["classes"], rep.extra["counts"]):
            blk = monic_block(ctx, n, cls * H, (cls + 1) * H)
            assert int(batch_is_irreducible(blk, ctx).sum()) == cnt

    def test_h_range(self):
        with pytest.raises(DegreeOutOfRange):
            exp_interval_primes(5, 4, 4)

    def test_verdict_gating(self):
        # h = n-1 is degenerate: measured but never judged
        rep = exp_interval_primes(5, 4, 3, mode="exhaustive")
        assert rep.verdict is None
        # small q never judged either
        rep = exp_interval_primes(5, 6, 3, mode="sampled", intervals=2)
        assert rep.verdict is None


class TestIntervalCycles:
    def test_n_cycle_equals_prime_weight(self):
        q, n, h = 5, 4, 1
        lam = CycleType(n, (0, 0, 0, 1))
        rc = exp_interval_cycles(q, n, h, lam, mode="sampled", intervals=4, seed=3)
        rp = exp_interval_primes(q, n, h, mode="sampled", intervals=4, seed=3)
        assert rc.extra["counts"] == rp.extra["counts"]
        assert rc.extra["p_lambda"] == "1/4"

    def test_partition_validation(self):
        with pytest.raises(InvalidPartition):
            exp_interval_cycles(5, 4, 1, (1, 0, 0, 1))
        with pytest.raises(DegreeOutOfRange):
            exp_interval_cycles(5, 4, 1, CycleType(3, (1, 1, 0)))

    def test_cycle_type_codes_stay_in_int64(self):
        ctx = make_field(2)
        lams = list(partitions(9))
        blk = monic_block(ctx, 9, 0, 2**9)
        got = experiments._type_id_lookup(ctx, 9, lams)(blk)
        assert all(lams[got[i]].lam == cycle_type(Poly(ctx, [int(c) for c in blk[i]] + [1])).lam
                   for i in range(0, 2**9, 3))
        with pytest.raises(DegreeOutOfRange):
            experiments._type_id_lookup(ctx, 36, [])


class TestCycleCensus:
    def test_exact_counts_q3_n2(self):
        rep = exp_cycle_census(3, 2)
        table = rep.extra["table"]
        # 3 splits into two distinct linears, 3 squares, 3 irreducible
        assert table["2/0"]["count"] == 6
        assert table["0/1"]["count"] == 3
        assert rep.extra["frequencies_sum_to_one"]

    def test_verdict_exact_rational(self):
        rep = exp_cycle_census(31, 3)
        assert rep.verdict is True
        assert rep.empirical["max_deviation"] <= 3 / 31

    def test_census_totals(self):
        rep = exp_cycle_census(7, 4)
        total = sum(v["count"] for v in rep.extra["table"].values())
        assert total == 7**4


class TestApPrimes:
    def test_residue_classes_partition_primes(self):
        q, n = 3, 3
        Q = P(q, "0,1")
        counts = sum(
            exp_ap_primes(q, n, Q, Poly.constant(make_field(q), a)).empirical["count"]
            for a in (1, 2))
        # no degree-3 prime is divisible by x, so classes partition all of them
        assert counts == necklace_count(q, n)

    def test_coprimality_enforced(self):
        with pytest.raises(NotCoprime):
            exp_ap_primes(3, 3, P(3, "0,1"), P(3, "0,1"))

    def test_exact_equidistribution_mod_x2(self):
        # pi(5)/Phi(x^2) is an integer for q=7 and the count hits it exactly
        rep = exp_ap_primes(7, 5, P(7, "0,0,1"), Poly.one(make_field(7)))
        assert rep.empirical["count"] == rep.predicted["pi_over_phi"]


class TestChowla:
    def test_single_shift_exact_zero(self):
        for q in (3, 5, 7):
            for n in range(2, 5):
                rep = exp_chowla(q, n, ShiftTuple((Poly.zero(make_field(q)),)))
                assert rep.empirical["S"] == 0
                assert rep.verdict is True

    def test_pair_bound(self):
        ctx = make_field(7)
        st = ShiftTuple((Poly.zero(ctx), Poly.one(ctx)))
        rep = exp_chowla(7, 3, st)
        assert rep.normalized_error <= 5
        assert rep.verdict is True

    def test_even_characteristic_rejected(self):
        ctx = make_field(2)
        with pytest.raises(EvenCharacteristic):
            exp_chowla(2, 3, ShiftTuple((Poly.zero(ctx),)))

    def test_all_even_exponents_rejected(self):
        ctx = make_field(5)
        st = ShiftTuple((Poly.zero(ctx), Poly.one(ctx)), (2, 2))
        with pytest.raises(InvalidShiftTuple):
            exp_chowla(5, 3, st)

    def test_sampled_reproducible(self):
        ctx = make_field(5)
        st = ShiftTuple((Poly.zero(ctx), Poly.one(ctx)))
        a = exp_chowla(5, 4, st, mode="sampled", samples=20_000, seed=11)
        b = exp_chowla(5, 4, st, mode="sampled", samples=20_000, seed=11)
        assert a.empirical["S"] == b.empirical["S"]


class TestTwin:
    def test_count_vs_main_term(self):
        ctx = make_field(7)
        rep = exp_twin(7, 3, ShiftTuple((Poly.zero(ctx), Poly.one(ctx))))
        assert rep.predicted["main_term"] == 7**3 / 9
        assert rep.verdict is True

    def test_small_prediction_not_judged(self):
        ctx = make_field(3)
        st = ShiftTuple((Poly.zero(ctx), Poly.one(ctx), Poly.constant(ctx, 2)))
        rep = exp_twin(3, 5, st)
        assert rep.predicted["main_term"] < 10
        assert rep.verdict is None

    def test_pair_count_bounded_by_singles(self):
        ctx = make_field(5)
        pair = exp_twin(5, 4, ShiftTuple((Poly.zero(ctx), Poly.one(ctx))))
        single = exp_prime_count(5, 4)
        assert pair.empirical["count"] <= single.empirical["pi"]


class TestDivisorCorr:
    def test_exhaustive_small(self):
        # q = 7 is below ASYMPTOTIC_MIN_Q: measured but not judged
        rep = exp_divisor_corr(7, 3, 2, Poly.one(make_field(7)))
        assert abs(rep.empirical["mean"] - 16) <= max(1.0, 10 / math.sqrt(7))
        assert rep.verdict is None

    def test_verdict_at_asymptotic_q(self):
        q = 29
        rep = exp_divisor_corr(q, 3, 2, Poly.one(make_field(q)))
        assert rep.verdict is (rep.abs_error <= max(1.0, 10 / math.sqrt(q)))
        assert rep.verdict is True
        sa = exp_divisor_corr(q, 4, 2, Poly.one(make_field(q)), mode="sampled",
                              samples=3000, seed=5)
        assert sa.verdict is not None

    def test_r1_is_constant_one(self):
        # d_1 = 1 identically, so the mean correlation is exactly 1
        rep = exp_divisor_corr(5, 3, 1, Poly.one(make_field(5)))
        assert rep.empirical["mean"] == 1
        assert rep.predicted["square_of_mean"] == 1

    def test_preconditions(self):
        ctx = make_field(5)
        with pytest.raises(ZeroShift):
            exp_divisor_corr(5, 3, 2, Poly.zero(ctx))
        with pytest.raises(DegreeOutOfRange):
            exp_divisor_corr(5, 2, 2, P(5, "0,0,1"))
        with pytest.raises(EvenCharacteristic):
            exp_divisor_corr(2, 3, 2, Poly.one(make_field(2)))

    def test_large_r_stays_exact(self):
        # d_r of cubics reaches r^3, past int64 for r = 3e6
        q, r = 5, 3_000_000
        ctx = make_field(q)
        blk = monic_block(ctx, 3, 0, q**3)
        got = _divisor_r_rows(ctx, blk, r)
        assert all(got[i] == divisor_k(Poly(ctx, [int(c) for c in blk[i]] + [1]), r)
                   for i in range(0, q**3, 4))
        rep = exp_divisor_corr(q, 3, r, Poly.one(ctx))
        assert rep.predicted["square_of_mean"] == math.comb(r + 2, 3) ** 2

    def test_sampled_close_to_exhaustive(self):
        shift = Poly.one(make_field(5))
        ex = exp_divisor_corr(5, 4, 2, shift)
        sa = exp_divisor_corr(5, 4, 2, shift, mode="sampled", samples=50_000,
                              seed=2)
        assert abs(ex.empirical["mean"] - sa.empirical["mean"]) < 2.0


class TestJointCycles:
    def test_marginals_and_verdict(self):
        rep = exp_joint_cycles(31, 3, Poly.one(make_field(31)))
        assert rep.extra["marginals_symmetric"]
        assert rep.verdict is True

    def test_preconditions(self):
        ctx = make_field(5)
        with pytest.raises(ZeroShift):
            exp_joint_cycles(5, 3, Poly.zero(ctx))
        with pytest.raises(DegreeOutOfRange):
            exp_joint_cycles(5, 2, P(5, "0,0,0,1"))
        with pytest.raises(EvenCharacteristic):
            exp_joint_cycles(2, 3, Poly.one(make_field(2)))

    def test_joint_counts_total(self):
        rep = exp_joint_cycles(5, 3, Poly.one(make_field(5)))
        # both-prime cell is bounded by the prime count
        assert rep.extra["both_prime_count"] <= necklace_count(5, 3)


class TestVarPsi:
    def test_mean_is_exactly_H(self):
        for q, n, h in [(3, 4, 0), (5, 4, 1), (7, 3, 0)]:
            rep = exp_var_psi(q, n, h)
            assert rep.extra["mean_matches_identity"]
            assert rep.empirical["mean"] == q ** (h + 1)

    def test_exhaustive_vs_sampled_within_stderr(self):
        # sampled variance of K classes concentrates around the population
        # value with relative sd about sqrt(2/K)
        ex = exp_var_psi(7, 5, 0)
        sa = exp_var_psi(7, 5, 0, mode="sampled", intervals=1000, seed=0)
        var_e = Fraction(*map(int, ex.extra["variance_exact"].split("/")))
        var_s = Fraction(*map(int, sa.extra["variance_exact"].split("/")))
        stderr = float(var_s) * math.sqrt(2 / (1000 - 1))
        assert abs(float(var_s - var_e)) <= 4 * stderr

    def test_h_range(self):
        with pytest.raises(DegreeOutOfRange):
            exp_var_psi(5, 4, 3)  # h = n-1 leaves a single class

    def test_report_is_deterministic(self):
        a = exp_var_psi(5, 5, 1, mode="sampled", intervals=10, seed=4)
        b = exp_var_psi(5, 5, 1, mode="sampled", intervals=10, seed=4)
        da, db = a.to_dict(), b.to_dict()
        da.pop("millis"), db.pop("millis")
        assert da == db


class TestVarMobius:
    def test_mean_exactly_zero(self):
        rep = exp_var_mobius(5, 4, 0)
        assert rep.extra["mean_matches_identity"]
        assert rep.empirical["mean"] == 0

    def test_variance_near_H_at_moderate_q(self):
        rep = exp_var_mobius(31, 4, 0)
        assert abs(rep.empirical["variance_over_H"] - 1) < 0.4
        assert rep.verdict is None  # h = 0 > n-5 for n = 4: outside range

    def test_even_characteristic(self):
        with pytest.raises(EvenCharacteristic):
            exp_var_mobius(2, 4, 0)


class TestVarLambda2:
    def test_mean_identity(self):
        for q, n, h in [(3, 4, 0), (3, 4, 1), (5, 3, 0)]:
            rep = exp_var_lambda2(q, n, h)
            assert rep.extra["mean_matches_identity"]
            assert rep.empirical["mean"] == (2 * n - 1) * q ** (h + 1)

    def test_prediction_is_rodgers_sum(self):
        rep = exp_var_lambda2(5, 5, 0)
        assert rep.predicted["variance_over_H"] == sum(
            (2 * d - 1) ** 2 for d in range(1, 4))


class TestVarG:
    def test_lambda_mass_identity(self):
        q, n = 5, 4
        Q = P(q, "0,1") * P(q, "1,1")
        rep = exp_var_G(q, n, Q)
        assert rep.extra["phi_matches_formula"]
        # Lambda mass on residues not coprime to Q comes from powers of the
        # prime factors only; here x^4 and (x+1)^4 contribute 1 each
        assert rep.extra["lambda_mass_on_coprime"] == q**n - 2

    def test_preconditions(self):
        with pytest.raises(NotSquarefree):
            exp_var_G(5, 4, P(5, "0,0,1"))
        with pytest.raises(DegreeOutOfRange):
            exp_var_G(5, 4, P(5, "0,1"))
        with pytest.raises(DegreeOutOfRange):
            exp_var_G(5, 3, P(5, "0,1") * P(5, "1,1") * P(5, "2,1"))


class TestVarDivisor:
    def test_vanishing_band_exact(self):
        # h > n/2 - 1 forces Delta_2 = 0 identically
        rep = exp_var_divisor(3, 5, 2, k=2)
        assert rep.extra["vanishing_band"]
        assert rep.verdict is True
        assert rep.extra["mean_square_exact"] == "0/1"

    def test_mean_identity(self):
        rep = exp_var_divisor(3, 4, 1, k=2)
        assert rep.extra["mean_matches_identity"]

    def test_pair_split_matches_direct(self):
        q, n, h = 3, 7, 1
        ctx = make_field(q)
        cls = np.arange(q ** (n - h - 1), dtype=np.int64)
        split = _divisor2_interval_sums(ctx, n, h, cls, 10**9)
        direct = _class_sums(
            ctx, n, h, lambda blk, idx: _divisor_r_rows(ctx, blk, 2), None, 10**9)
        assert (split == direct).all()

    @pytest.mark.parametrize("shard", [7, 60])
    def test_pair_split_chunked(self, monkeypatch, shard):
        # 7 cells split M_3 (27 rows) into pieces; 60 cells hold two
        # classes of 27, so chunk boundaries fall inside the class list
        q, n, h = 3, 7, 1
        ctx = make_field(q)
        cls = np.arange(q ** (n - h - 1), dtype=np.int64)
        whole = _divisor2_interval_sums(ctx, n, h, cls, 10**9)
        monkeypatch.setattr(experiments, "_SHARD", shard)
        assert (_divisor2_interval_sums(ctx, n, h, cls, 10**9) == whole).all()
        picked = cls[[0, 5, 6, 100, 242]]
        assert (_divisor2_interval_sums(ctx, n, h, picked, 10**9) == whole[picked]).all()

    @pytest.mark.parametrize("q", [7, 11, 127, 131])
    def test_pair_count_across_dtype_switches(self, q):
        # m (p-1)^2 + p at m = 2 crosses int8 between 7 and 11 and int16
        # between 127 and 131; compare with divisors counted one f at a time
        from fqx.polyring import factor

        n, h, m = 4, 0, 2
        ctx = make_field(q)
        cls = np.random.default_rng(q).integers(0, q ** (n - h - 1), size=3)
        got = experiments._count_middle_pairs(ctx, n, h, m, cls)
        for c, count in zip(cls, got):
            top = [int(v) for v in experiments._batch.index_rows(
                np.array([c]), n - h - 1, q)[0]]
            want = 0
            for c0 in range(q):  # I(A;0): the constant term runs free
                ways = [1] + [0] * n  # monic divisors by degree
                for Pf, e in factor(Poly(ctx, [c0] + top + [1])).factors:
                    ways = [sum(ways[d - j * Pf.degree] for j in range(e + 1)
                                if d >= j * Pf.degree) for d in range(n + 1)]
                want += ways[m]
            assert count == want

    def test_k2_prediction_equals_binomial(self):
        # matrix-integral route vs the reflected binomial, all n <= 12
        for n in range(5, 13):
            for h in range(0, n // 2 - 1):
                pred = divisor_integral(2, n, n - h - 2, mode="closed")
                assert pred == math.comb(n - 2 * h - 1, 3)

    def test_printed_cubic_flagged(self):
        rep = exp_var_divisor(3, 6, 1, k=2)
        assert rep.extra["printed_cubic_matches_integral"] is False

    def test_k3_vanishing(self):
        # h > 2n/3 - 1: q=3, n=4, h=2
        rep = exp_var_divisor(3, 4, 2, k=3)
        assert rep.extra["vanishing_band"]
        assert rep.verdict is True


class TestCrossModule:
    def test_interval_mobius_from_character_sums(self):
        """Interval Mobius sums equal their expansion over even Dirichlet
        characters mod x^{n-h}, through the reversal bijection."""
        q, n, h = 5, 4, 1
        ctx = make_field(q)
        m = n - h
        H = q ** (h + 1)

        # direct per-class Mobius sums
        from fqx.batch import batch_mobius

        direct = _class_sums(
            ctx, n, h, lambda blk, idx: batch_mobius(blk, ctx), None, 10**8)

        group = build_unit_group(Poly.monomial(ctx, m))
        evens = [chi for chi in list_characters(group, "even")
                 if not chi.is_trivial]
        phi_ev = len(evens) + 1
        msums = {chi: m_sum(n, chi, "mobius") - m_sum(n - 1, chi, "mobius")
                 for chi in evens}

        for cls in range(q ** (n - h - 1)):
            # class representative x^{h+1} B with B's coefficients the digits
            digits = []
            v = cls
            for _ in range(n - h - 1):
                v, d = divmod(v, q)
                digits.append(d)
            # B* = reversal of B = x^{n-h-1} + ... : constant coefficient 1
            bstar = Poly(ctx, [1] + digits[::-1])
            rhs = sum(char_eval(chi, bstar).conjugate() * msums[chi]
                      for chi in evens) / phi_ev
            assert abs(direct[cls] - rhs) < 1e-8


class TestReports:
    def test_to_dict_roundtrip_fields(self):
        rep = exp_prime_count(3, 4)
        d = rep.to_dict()
        for key in ("experiment", "params", "empirical", "predicted",
                    "abs_error", "normalized_error", "verdict", "provenance",
                    "seed", "mode", "samples", "millis", "extra"):
            assert key in d
        assert d["experiment"] == "prime_count"
        assert isinstance(d["millis"], float)
