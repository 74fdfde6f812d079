"""Headline statistics over F_q[x] packaged as reproducible experiments.

Every experiment computes an empirical quantity, the limiting prediction,
and the deviation normalized by the predicted error scale (q^{-1/2} where
the underlying theorem has one).  Verdicts are only issued inside a
theorem's stated range and when q is large enough for the asymptotic
tolerance to mean anything (q >= 25, i.e. q^{-1/2} <= 0.2); outside that
the report is informational with verdict None.

Exact identities (mean of psi equal to H, frequencies summing to one, the
vanishing of Delta_k above the critical band) are computed in integer or
rational arithmetic and checked with zero tolerance.

Every walk over M_n goes through one generator, `_scan`: all of M_n in
index order, whole interval classes I(A;h), or seeded random rows, in
shards of at most `_SHARD` rows, with the q^n work budget checked there and
nowhere else.  Each experiment is a reduction over those shards, and
`_timed` stamps the report's `millis` with the wall time of the whole call.

Two routes give the arithmetic weights.  An exhaustive scan of M_n walks
the segments of the exponent-profile sieve (`batch.sieve_profiles`), and
reads Lambda, irreducibility, mu and d_k off each segment's profile; its
class sums are integer sums over whole segments.  Sampled rows, sampled
interval classes and shifted rows (Chowla, twins, divisor correlations,
cycle types) go through the per-row kernels of `batch`, as does Lambda_2,
which needs the degrees of the prime factors and not only their exponents.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import batch as _batch
from . import rmt as _rmt
from .errors import (
    BudgetExceeded,
    ClosedFormNotAvailable,
    DegreeOutOfRange,
    DuplicateShifts,
    EvenCharacteristic,
    InvalidShiftTuple,
    NotCoprime,
    NotSquarefree,
    PreconditionError,
    ZeroShift,
)
from .field import FieldCtx, int_mobius, make_field
from .polyring import (
    CycleType,
    Poly,
    factor,
    gcd,
    poly_to_string,
)

ASYMPTOTIC_MIN_Q = 25  # q^{-1/2} <= 0.2: below this all q->infinity verdicts are None

_SHARD = 400_000


@dataclass
class ExperimentReport:
    """Outcome of one experiment run.

    verdict is True/False only when the configuration sits inside the
    underlying theorem's range; None means measured but not judged.
    provenance names the public result the prediction comes from.
    """

    experiment: str
    params: dict
    empirical: dict
    predicted: dict
    abs_error: float | None
    normalized_error: float | None
    verdict: bool | None
    provenance: str
    seed: int | None = None
    mode: str = "exhaustive"
    samples: int | None = None
    millis: float = 0.0
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _timed(fn):
    """Stamp the returned report's millis with the wall time of the call."""

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        rep = fn(*args, **kwargs)
        rep.millis = (time.perf_counter() - t0) * 1000
        return rep

    return timed


@dataclass(frozen=True)
class ShiftTuple:
    """Distinct shift polynomials, with exponents in {1, 2} for the Mobius
    correlation (where they must not all be even)."""

    shifts: tuple[Poly, ...]
    exponents: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(set(self.shifts)) != len(self.shifts):
            raise DuplicateShifts("shifts must be pairwise distinct")
        if self.exponents is not None:
            if len(self.exponents) != len(self.shifts):
                raise InvalidShiftTuple("one exponent per shift")
            if any(e not in (1, 2) for e in self.exponents):
                raise InvalidShiftTuple("exponents must be 1 or 2")

    @property
    def r(self) -> int:
        return len(self.shifts)

    def exps(self) -> tuple[int, ...]:
        return self.exponents if self.exponents is not None else (1,) * self.r

    def check_degrees(self, n: int):
        if any(s.degree >= n for s in self.shifts):
            raise InvalidShiftTuple("shift degrees must be < n")


# partitions and the Cauchy measure ------------------------------------------------


def _parts(n: int, largest: int):
    if n == 0:
        yield []
        return
    for j in range(min(n, largest), 0, -1):
        for rest in _parts(n - j, j):
            yield [j] + rest


def partitions(n: int):
    """All cycle types of degree n."""
    for ps in _parts(n, n):
        counts = [0] * n
        for j in ps:
            counts[j - 1] += 1
        yield CycleType(n, tuple(counts))


def cauchy_probability(lam: CycleType) -> Fraction:
    """Probability that a uniform permutation of n letters has cycle type
    lambda: 1 / prod_j j^{lambda_j} lambda_j!."""
    denom = 1
    for j, c in enumerate(lam.lam, start=1):
        denom *= j**c * math.factorial(c)
    return Fraction(1, denom)


def necklace_count(q: int, n: int) -> int:
    """Number of monic irreducibles of degree n: (1/n) sum mu(d) q^{n/d}."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += int_mobius(d) * q ** (n // d)
    return total // n


def euler_phi_poly(Q: Poly) -> int:
    """Size of the unit group of F_q[x]/(Q)."""
    q = Q.ctx.p
    phi = 1
    for P, e in factor(Q).factors:
        d = P.degree
        phi *= q ** (e * d) - q ** ((e - 1) * d)
    return phi


# scan engine -----------------------------------------------------------------------


def _scan(ctx: FieldCtx, n: int, budget: int, classes: np.ndarray | None = None,
          h: int = 0, samples: int | None = None, seed: int = 0,
          profile: bool = False):
    """Shards (rows, index) of at most _SHARD monic degree-n rows.

    By default all of M_n in index order, one sieve segment per shard: the
    p^(n-s) indices that share their top s coefficients, s the least value
    with p^(n-s) <= _SHARD.  With profile, those shards carry the segment's
    exponent profile (batch.sieve_profiles) in place of its rows.  With
    classes (sorted class indices), the whole interval classes I(A;h) of
    those classes, in class order, each shard holding whole classes.  With
    samples, that many rows drawn shard by shard from default_rng(seed),
    indices unsorted.  An exhaustive or class scan over budget rows raises
    BudgetExceeded here, and a sample count below 1 PreconditionError,
    before any work.
    """
    p = ctx.p
    total = p**n
    H = p ** (h + 1)
    if samples is not None and samples < 1:
        raise PreconditionError(f"need samples >= 1, got {samples}")
    if samples is None and classes is None and total > budget:
        raise BudgetExceeded(f"q^n = {total} exceeds budget {budget}")
    if samples is None and classes is not None and classes.size * H > budget:
        raise BudgetExceeded(
            f"{classes.size} classes of size {H} exceed budget {budget}")

    def shards():
        if samples is not None:
            rng = np.random.default_rng(seed)
            for got in range(0, samples, _SHARD):
                idx = rng.integers(0, total, size=min(samples - got, _SHARD))
                yield _batch.index_rows(idx, n, p), idx
        elif classes is None:
            seg = total
            while seg > _SHARD:
                seg //= p
            if profile:
                for start, counts in _batch.sieve_profiles(ctx, n, seg):
                    yield counts, np.arange(start, start + seg, dtype=np.int64)
            else:
                for start in range(0, total, seg):
                    yield (_batch.monic_block(ctx, n, start, start + seg),
                           np.arange(start, start + seg, dtype=np.int64))
        else:
            offsets = np.arange(H, dtype=np.int64)
            chunk = max(1, _SHARD // H)
            for i0 in range(0, classes.size, chunk):
                idx = (classes[i0 : i0 + chunk, None] * H + offsets).ravel()
                yield _batch.index_rows(idx, n, p), idx

    return shards()


def _exhaustive(mode: str, other: str = "sampled") -> bool:
    """True for "exhaustive", False for the experiment's other mode."""
    if mode not in ("exhaustive", other):
        raise ValueError(f"unknown mode {mode!r}")
    return mode == "exhaustive"


# class sums ------------------------------------------------------------------------


def _lambda_weight(ctx: FieldCtx, n: int):
    """Row weight Lambda as a function of (block, absolute index array).

    The index array must be sorted; prime-power corrections are located in
    it by binary search, so the weight works on any union of index ranges,
    not just one contiguous block.  The prime powers are listed on the
    first call, so building the weight costs nothing.
    """
    prime_powers = functools.cache(lambda: _batch.proper_prime_power_indices(ctx, n))

    def w(blk: np.ndarray, idx: np.ndarray) -> np.ndarray:
        pp_idx, pp_val = prime_powers()
        out = _batch.batch_is_irreducible(blk, ctx).astype(np.int64) * n
        if pp_idx.size:
            pos = np.searchsorted(idx, pp_idx)
            ok = pos < idx.size
            hit = np.zeros(pp_idx.size, dtype=bool)
            hit[ok] = idx[pos[ok]] == pp_idx[ok]
            out[pos[hit]] += pp_val[hit]
        return out

    return w


def _sample_classes(nclasses: int, count: int, seed: int) -> np.ndarray:
    """Sorted distinct class indices; all classes when count >= nclasses.

    Rejection sampling keeps memory flat even when nclasses is huge."""
    if count < 1:
        raise PreconditionError(f"need intervals >= 1, got {count}")
    if count >= nclasses:
        return np.arange(nclasses, dtype=np.int64)
    rng = np.random.default_rng(seed)
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < count:
        for c in rng.integers(0, nclasses, size=2 * (count - len(out))):
            c = int(c)
            if c not in seen:
                seen.add(c)
                out.append(c)
                if len(out) == count:
                    break
    return np.array(sorted(out), dtype=np.int64)


def _exact(w: np.ndarray, terms: int) -> np.ndarray:
    """w, as Python ints (dtype object) when a sum of `terms` of its
    entries could leave int64, so that the sum stays exact."""
    if w.dtype != object and terms * int(np.abs(w).max(initial=0)) >= 2**63:
        return w.astype(object)
    return w


def _class_sums(ctx: FieldCtx, n: int, h: int, weight, classes: np.ndarray | None,
                budget: int, from_profile=None) -> np.ndarray:
    """Per-interval-class sums of a row weight over M_n, summed exactly.

    weight(block, sorted_abs_index_array) -> integers per row, and
    from_profile(counts) the same weight read off an exponent profile.
    classes None means all q^{n-h-1} classes (exhaustive), summed over the
    sieve's segments with from_profile, or over the segments' rows with
    weight when from_profile is None; otherwise sums for the given sorted
    classes, in order, with weight.
    """
    H = ctx.p ** (h + 1)
    if classes is None:
        out = np.zeros(ctx.p ** (n - h - 1), dtype=np.int64)
        profile = from_profile is not None
        for data, idx in _scan(ctx, n, budget, profile=profile):
            w = _exact(from_profile(data) if profile else weight(data, idx), H)
            if w.dtype == object and out.dtype != object:
                out = out.astype(object)
            # segments and classes are aligned powers of p: a segment holds
            # whole classes, or lies inside one class
            first = int(idx[0]) // H
            if idx.size >= H:
                out[first : first + idx.size // H] += w.reshape(-1, H).sum(axis=1)
            else:
                out[first] += w.sum()
        return out
    parts = [_exact(weight(blk, idx), H).reshape(-1, H).sum(axis=1)
             for blk, idx in _scan(ctx, n, budget, classes=classes, h=h)]
    return np.concatenate([np.zeros(0, dtype=np.int64), *parts])


def _mean_var(sums: np.ndarray) -> tuple[Fraction, Fraction]:
    """Exact population mean and variance of integer class sums."""
    C = sums.size
    if np.abs(sums).max(initial=0) < 3_000_000_000:
        S = int(sums.sum())
        S2 = int((sums * sums).sum())
    else:
        S = sum(int(v) for v in sums)
        S2 = sum(int(v) * int(v) for v in sums)
    return Fraction(S, C), Fraction(C * S2 - S * S, C * C)


def _relative(value, target: float) -> float:
    return abs(float(value) / target - 1.0) if target else math.inf


def _shifted_block(blk: np.ndarray, s: Poly) -> np.ndarray:
    out = blk.copy()
    for j, c in enumerate(s.coeffs):
        out[:, j] += c
    return out % s.ctx.p


# experiments ----------------------------------------------------------------------


@_timed
def exp_prime_count(q: int, n: int, mode: str = "exhaustive",
                    budget: int = 10**8) -> ExperimentReport:
    """pi_q(n) by exhaustive irreducibility testing, cross-checked against
    the necklace formula, and compared to the main term q^n/n."""
    ctx = make_field(q)
    neck = necklace_count(q, n)
    if _exhaustive(mode, "necklace_only"):
        pi = sum(int((_batch.von_mangoldt_from_counts(counts) == n).sum())
                 for counts, _ in _scan(ctx, n, budget, profile=True))
        routes_agree = pi == neck
    else:
        pi = neck
        routes_agree = None
    main = q**n / n
    abs_err = abs(pi - main)
    norm = abs_err / q ** (n / 2)
    verdict = norm <= 2 and routes_agree is not False
    return ExperimentReport(
        experiment="prime_count",
        params={"q": q, "n": n},
        empirical={"pi": pi},
        predicted={"necklace": neck, "main_term": main},
        abs_error=abs_err,
        normalized_error=norm,
        verdict=verdict,
        provenance="prime polynomial theorem; necklace-count Mobius inversion (Gauss)",
        mode=mode,
        extra={} if routes_agree is None else {"routes_agree": routes_agree},
    )


def _interval_count_report(experiment, q, n, h, per_class_target, weight,
                           mode, intervals, seed, budget, provenance,
                           extra0=None, from_profile=None):
    """Shared core of the per-interval counting experiments."""
    ctx = make_field(q)
    if not 0 <= h < n:
        raise DegreeOutOfRange("need 0 <= h < n")
    nclasses = q ** (n - h - 1)
    classes = None if _exhaustive(mode) else _sample_classes(nclasses, intervals, seed)
    counts = _class_sums(ctx, n, h, weight, classes, budget, from_profile)
    target = float(per_class_target)
    max_abs = float(np.abs(counts - target).max())
    max_rel = max_abs / target if target else math.inf
    in_range = 3 <= h <= n - 2 and q >= ASYMPTOTIC_MIN_Q
    verdict = (max_rel <= 0.25) if in_range else None
    extra = dict(extra0 or {})
    if classes is not None:
        extra["classes"] = [int(c) for c in classes]
        extra["counts"] = [int(c) for c in counts]
    else:
        extra["num_classes"] = int(nclasses)
        extra["total_count"] = int(counts.sum())
    return ExperimentReport(
        experiment=experiment,
        params={"q": q, "n": n, "h": h},
        empirical={"max_abs_deviation": max_abs, "max_rel_deviation": max_rel},
        predicted={"per_interval": target},
        abs_error=max_abs,
        normalized_error=max_rel * math.sqrt(q),
        verdict=verdict,
        provenance=provenance,
        seed=seed,
        mode=mode,
        samples=None if classes is None else int(classes.size),
        extra=extra,
    )


@_timed
def exp_interval_primes(q: int, n: int, h: int, mode: str = "sampled",
                        intervals: int = 5, seed: int = 0,
                        budget: int = 10**8) -> ExperimentReport:
    """Prime counts in short intervals I(A;h) against H/n."""
    ctx = make_field(q)

    def weight(blk, idx):
        return _batch.batch_is_irreducible(blk, ctx).astype(np.int64)

    def from_profile(counts):
        return (_batch.von_mangoldt_from_counts(counts) == n).astype(np.int64)

    H = q ** (h + 1)
    rep = _interval_count_report(
        "interval_primes", q, n, h, Fraction(H, n), weight, mode, intervals,
        seed, budget,
        "Bank, Bary-Soroker and Rosenzweig: primes in short intervals, "
        "H/n (1 + O(q^{-1/2})) for 3 <= h <= n-2", from_profile=from_profile)
    if mode == "exhaustive":
        rep.extra["prime_count_matches_necklace"] = (
            rep.extra["total_count"] == necklace_count(q, n))
    return rep


def _type_id_lookup(ctx: FieldCtx, n: int, lams: list):
    """Vectorized block -> partition-id map, through batch_cycle_types.

    A cycle type is coded in the mixed radix whose digit d counts the
    degree-d parts (at most n // d of them); the partitions' codes are
    found by binary search.
    """
    if math.prod(n // d + 1 for d in range(1, n + 1)) >= 2**63:
        raise DegreeOutOfRange("cycle-type codes are int64: need n <= 35")
    radix = np.cumprod([1] + [n // d + 1 for d in range(1, n)], dtype=np.int64)
    codes = np.array([np.array(lam.lam, dtype=np.int64) @ radix for lam in lams],
                     dtype=np.int64)
    order = np.argsort(codes)

    def ids(blk: np.ndarray) -> np.ndarray:
        code = _batch.batch_cycle_types(blk, ctx) @ radix
        return order[np.searchsorted(codes[order], code)]

    return ids


@_timed
def exp_interval_cycles(q: int, n: int, h: int, lam, mode: str = "sampled",
                        intervals: int = 5, seed: int = 0,
                        budget: int = 10**8) -> ExperimentReport:
    """Counts of a fixed cycle type in short intervals against p(lambda) H."""
    ctx = make_field(q)
    if not isinstance(lam, CycleType):
        lam = CycleType(n, tuple(lam))
    if lam.n != n:
        raise DegreeOutOfRange("partition degree must match n")
    plam = cauchy_probability(lam)
    lams = list(partitions(n))
    ids = _type_id_lookup(ctx, n, lams)
    target = lams.index(lam)

    def weight(blk, idx):
        return (ids(blk) == target).astype(np.int64)

    H = q ** (h + 1)
    rep = _interval_count_report(
        "interval_cycles", q, n, h, plam * H, weight, mode, intervals, seed,
        budget,
        "Bank, Bary-Soroker and Rosenzweig: cycle types in short intervals, "
        "p(lambda) H (1 + O(q^{-1/2}))",
        extra0={"p_lambda": f"{plam.numerator}/{plam.denominator}"})
    rep.params["lambda"] = list(lam.lam)
    return rep


@_timed
def exp_cycle_census(q: int, n: int, budget: int = 10**8) -> ExperimentReport:
    """Full cycle-type distribution over M_n against the Cauchy measure,
    in exact rational arithmetic."""
    ctx = make_field(q)
    lams = list(partitions(n))
    ids = _type_id_lookup(ctx, n, lams)
    counts = np.zeros(len(lams), dtype=np.int64)
    for blk, _ in _scan(ctx, n, budget):
        counts += np.bincount(ids(blk), minlength=len(lams))
    total = q**n
    freqs = [Fraction(int(c), total) for c in counts]
    devs = [abs(fr - cauchy_probability(lam)) for fr, lam in zip(freqs, lams)]
    maxdev = max(devs)
    verdict = maxdev <= Fraction(3, q)
    return ExperimentReport(
        experiment="cycle_census",
        params={"q": q, "n": n},
        empirical={"max_deviation": float(maxdev)},
        predicted={"distribution": "Cauchy measure p(lambda)"},
        abs_error=float(maxdev),
        normalized_error=float(maxdev * q),
        verdict=verdict,
        provenance="Cauchy cycle-type measure; equidistribution with O(1/q) error",
        extra={
            "frequencies_sum_to_one": sum(freqs) == 1,
            "table": {
                "/".join(map(str, lam.lam)): {
                    "count": int(c),
                    "freq": f"{fr.numerator}/{fr.denominator}",
                    "p_lambda": "{}/{}".format(
                        cauchy_probability(lam).numerator,
                        cauchy_probability(lam).denominator),
                }
                for lam, c, fr in zip(lams, counts, freqs)
            },
        },
    )


@_timed
def exp_ap_primes(q: int, n: int, Q: Poly, A: Poly,
                  budget: int = 10**8) -> ExperimentReport:
    """pi_q(n; Q, A) by enumeration against pi_q(n)/Phi(Q)."""
    ctx = make_field(q)
    Q = Q.monic()
    if gcd(A, Q).degree != 0:
        raise NotCoprime("A must be coprime to Q")
    m = Q.degree
    q_low = np.array(Q.coeffs[:m], dtype=np.int64)
    a_row = np.zeros(m, dtype=np.int64)
    for j, c in enumerate((A % Q).coeffs):
        a_row[j] = c
    count = 0
    for counts, idx in _scan(ctx, n, budget, profile=True):
        primes = _batch.index_rows(idx[_batch.von_mangoldt_from_counts(counts) == n], n, q)
        count += int((_batch.reduce_mod(primes, q_low, q) == a_row).all(axis=1).sum())
    pi = necklace_count(q, n)
    phi = euler_phi_poly(Q)
    pred = pi / phi
    abs_err = abs(count - pred)
    if 1 <= m <= n - 3:
        norm = _relative(count, pred) * math.sqrt(q)
        verdict = (_relative(count, pred) <= 0.25) if q >= ASYMPTOTIC_MIN_Q else None
    else:
        # outside the theorem range keep an unconditional scale
        norm = abs_err / (m * q ** (n / 2))
        verdict = None
    return ExperimentReport(
        experiment="ap_primes",
        params={"q": q, "n": n, "modulus": poly_to_string(Q),
                "residue": poly_to_string(A)},
        empirical={"count": count},
        predicted={"pi_over_phi": pred, "pi": pi, "phi": phi},
        abs_error=abs_err,
        normalized_error=norm,
        verdict=verdict,
        provenance="primes in progressions: pi/Phi with O(q^{-1/2}) relative "
                   "error for deg Q <= n-3 (Bank, Bary-Soroker and Rosenzweig)",
    )


@_timed
def exp_chowla(q: int, n: int, shifts: ShiftTuple, mode: str = "exhaustive",
               samples: int = 200_000, seed: int = 0,
               budget: int = 10**8) -> ExperimentReport:
    """Mobius correlation sum S = sum over M_n of prod mu(F + a_i)^{e_i}."""
    ctx = make_field(q)
    if not ctx.odd:
        raise EvenCharacteristic("the correlation bound needs odd q")
    if n <= 1:
        raise PreconditionError("n > 1 required")
    shifts.check_degrees(n)
    exps = shifts.exps()
    if all(e == 2 for e in exps):
        raise InvalidShiftTuple("not all exponents may be even")

    def row_products(blk: np.ndarray) -> np.ndarray:
        prod = np.ones(blk.shape[0], dtype=np.int64)
        for s, e in zip(shifts.shifts, exps):
            mu = _batch.batch_mobius(_shifted_block(blk, s), ctx)
            prod *= mu * mu if e == 2 else mu
        return prod

    exhaustive = _exhaustive(mode)
    nrows = None if exhaustive else samples
    S = sum(int(row_products(blk).sum())
            for blk, _ in _scan(ctx, n, budget, samples=nrows, seed=seed))
    if not exhaustive:
        S = S * q**n / samples
    norm = abs(S) / q ** (n - 0.5)
    if shifts.r == 1:
        verdict = (S == 0) if exhaustive else None
    else:
        verdict = norm <= 5
    return ExperimentReport(
        experiment="chowla",
        params={"q": q, "n": n, "r": shifts.r,
                "shifts": [poly_to_string(s) for s in shifts.shifts],
                "exponents": list(exps)},
        empirical={"S": S},
        predicted={"cancellation": 0},
        abs_error=abs(S),
        normalized_error=norm,
        verdict=verdict,
        provenance="Chowla-type Mobius correlation: S = O(q^{n-1/2}) for odd q "
                   "via Pellet's discriminant formula",
        seed=seed,
        mode=mode,
        samples=nrows,
    )


@_timed
def exp_twin(q: int, n: int, shifts: ShiftTuple,
             budget: int = 10**8) -> ExperimentReport:
    """Simultaneous irreducibility of f + a_1, ..., f + a_r against q^n/n^r."""
    ctx = make_field(q)
    shifts.check_degrees(n)
    count = 0
    for blk, _ in _scan(ctx, n, budget):
        ok = np.ones(blk.shape[0], dtype=bool)
        for s in shifts.shifts:
            ok &= _batch.batch_is_irreducible(_shifted_block(blk, s), ctx)
            if not ok.any():
                break
        count += int(ok.sum())
    pred = q**n / n**shifts.r
    rel = _relative(count, pred)
    verdict = (rel <= 0.5) if pred >= 10 else None
    return ExperimentReport(
        experiment="twin",
        params={"q": q, "n": n, "r": shifts.r,
                "shifts": [poly_to_string(s) for s in shifts.shifts]},
        empirical={"count": count},
        predicted={"main_term": pred},
        abs_error=abs(count - pred),
        normalized_error=rel * math.sqrt(q),
        verdict=verdict,
        provenance="twin prime analogue: ~ q^n/n^r simultaneous irreducibles "
                   "(Hardy-Littlewood heuristic; Bender-Pollack, Bary-Soroker)",
    )


def _divisor_r_rows(ctx: FieldCtx, blk: np.ndarray, r: int) -> np.ndarray:
    # the shape route's values, at most r^n, are int64
    if blk.shape[1] <= 3 and r ** blk.shape[1] < 2**62:
        return _batch.batch_divisor_r_small(blk, ctx, r)
    return _batch.batch_divisor_k(blk, ctx, r)


@_timed
def exp_divisor_corr(q: int, n: int, r: int, shift: Poly,
                     mode: str = "exhaustive", samples: int = 200_000,
                     seed: int = 0, budget: int = 10**8) -> ExperimentReport:
    """Mean of d_r(f) d_r(f + shift) over M_n against binom(n+r-1, r-1)^2."""
    ctx = make_field(q)
    if not ctx.odd:
        raise EvenCharacteristic("the correlation theorem needs odd q")
    if shift.is_zero():
        raise ZeroShift("shift must be nonzero")
    if shift.degree >= n:
        raise DegreeOutOfRange("need n > deg shift")

    def pair_products(blk: np.ndarray) -> np.ndarray:
        a = _divisor_r_rows(ctx, blk, r)
        b = _divisor_r_rows(ctx, _shifted_block(blk, shift), r)
        # Python ints when the shard's sum of products could leave int64
        return _exact(a, a.size * int(b.max(initial=0))) * b

    nrows = None if _exhaustive(mode) else samples
    acc = sum(int(pair_products(blk).sum())
              for blk, _ in _scan(ctx, n, budget, samples=nrows, seed=seed))
    mean = Fraction(acc, q**n if nrows is None else nrows)
    pred = math.comb(n + r - 1, r - 1) ** 2
    abs_err = abs(float(mean) - pred)
    in_range = q >= ASYMPTOTIC_MIN_Q
    verdict = (abs_err <= max(1.0, 10 / math.sqrt(q))) if in_range else None
    return ExperimentReport(
        experiment="divisor_corr",
        params={"q": q, "n": n, "r": r, "shift": poly_to_string(shift)},
        empirical={"mean": float(mean),
                   "mean_exact": f"{mean.numerator}/{mean.denominator}"},
        predicted={"square_of_mean": pred},
        abs_error=abs_err,
        normalized_error=abs_err * math.sqrt(q),
        verdict=verdict,
        provenance="additive divisor correlation: mean of d_r(f) d_r(f+h) tends "
                   "to binom(n+r-1,r-1)^2 (Andrade, Bary-Soroker and Rudnick)",
        seed=seed,
        mode=mode,
        samples=nrows,
    )


@_timed
def exp_joint_cycles(q: int, n: int, alpha: Poly,
                     budget: int = 10**8) -> ExperimentReport:
    """Joint cycle-type distribution of (f, f + alpha) against the product
    of Cauchy measures, in exact rational arithmetic."""
    ctx = make_field(q)
    if not ctx.odd:
        raise EvenCharacteristic("independence statement needs odd q")
    if alpha.is_zero():
        raise ZeroShift("alpha must be nonzero")
    if alpha.degree >= n:
        raise DegreeOutOfRange("need deg alpha < n")
    lams = list(partitions(n))
    ids = _type_id_lookup(ctx, n, lams)
    L = len(lams)
    joint = np.zeros((L, L), dtype=np.int64)
    for blk, _ in _scan(ctx, n, budget):
        np.add.at(joint, (ids(blk), ids(_shifted_block(blk, alpha))), 1)
    total = q**n
    probs = [cauchy_probability(lam) for lam in lams]
    maxdev = Fraction(0)
    for i in range(L):
        for j in range(L):
            dev = abs(Fraction(int(joint[i, j]), total) - probs[i] * probs[j])
            maxdev = max(maxdev, dev)
    marginals_symmetric = all(
        int(joint[i, :].sum()) == int(joint[:, i].sum()) for i in range(L))
    ncycle = [i for i, lam in enumerate(lams)
              if lam.lam == (0,) * (n - 1) + (1,)][0]
    verdict = maxdev <= Fraction(5, q)
    return ExperimentReport(
        experiment="joint_cycles",
        params={"q": q, "n": n, "alpha": poly_to_string(alpha)},
        empirical={"max_deviation": float(maxdev)},
        predicted={"joint": "p(lambda') p(lambda'')"},
        abs_error=float(maxdev),
        normalized_error=float(maxdev * q),
        verdict=verdict,
        provenance="asymptotic independence of the factorization types of f "
                   "and f + alpha as q grows",
        extra={"marginals_symmetric": marginals_symmetric,
               "both_prime_count": int(joint[ncycle, ncycle])},
    )


def _variance_report(experiment, q, n, h, weight, pred_ratio, mode, intervals,
                     seed, budget, provenance, mean_should_be=None,
                     in_theorem_range=None, from_profile=None):
    ctx = make_field(q)
    if not 0 <= h <= n - 2:
        raise DegreeOutOfRange(
            "variance needs 0 <= h <= n-2 (at least two interval classes)")
    H = q ** (h + 1)
    nclasses = q ** (n - h - 1)
    classes = None if _exhaustive(mode) else _sample_classes(nclasses, intervals, seed)
    sums = _class_sums(ctx, n, h, weight, classes, budget, from_profile)
    mean, var = _mean_var(sums)
    ratio = var / H
    if in_theorem_range is None:
        in_theorem_range = h <= n - 5
    rel = _relative(ratio, pred_ratio) if pred_ratio else None
    in_range = in_theorem_range and q >= ASYMPTOTIC_MIN_Q
    verdict = (rel <= 0.4) if (in_range and rel is not None) else None
    extra = {
        "variance_exact": f"{var.numerator}/{var.denominator}",
        "mean_exact": f"{mean.numerator}/{mean.denominator}",
    }
    if mean_should_be is not None and mode == "exhaustive":
        extra["mean_matches_identity"] = mean == mean_should_be
    return ExperimentReport(
        experiment=experiment,
        params={"q": q, "n": n, "h": h},
        empirical={"variance_over_H": float(ratio), "mean": float(mean)},
        predicted={"variance_over_H": pred_ratio},
        abs_error=abs(float(ratio) - pred_ratio),
        normalized_error=(rel * math.sqrt(q)) if rel is not None else None,
        verdict=verdict,
        provenance=provenance,
        seed=seed,
        mode=mode,
        samples=None if classes is None else int(classes.size),
        extra=extra,
    )


@_timed
def exp_var_psi(q: int, n: int, h: int, mode: str = "exhaustive",
                intervals: int = 2000, seed: int = 0,
                budget: int = 10**8) -> ExperimentReport:
    """Variance of psi(A;h) = sum of Lambda over I(A;h), against H(n-h-2)."""
    ctx = make_field(q)
    return _variance_report(
        "var_psi", q, n, h, _lambda_weight(ctx, n), n - h - 2, mode, intervals,
        seed, budget,
        "Keating-Rudnick: Var psi ~ H (n-h-2) for h <= n-5, matching the "
        "Diaconis-Shahshahani integral of |tr U^n|^2 over U(n-h-2)",
        mean_should_be=Fraction(q ** (h + 1)),
        from_profile=_batch.von_mangoldt_from_counts)


@_timed
def exp_var_mobius(q: int, n: int, h: int, mode: str = "exhaustive",
                   intervals: int = 2000, seed: int = 0,
                   budget: int = 10**8) -> ExperimentReport:
    """Variance of the interval Mobius sum, against H."""
    ctx = make_field(q)
    if not ctx.odd:
        raise EvenCharacteristic("batch Mobius route needs odd q")

    def weight(blk, idx):
        return _batch.batch_mobius(blk, ctx)

    return _variance_report(
        "var_mobius", q, n, h, weight, 1, mode, intervals, seed, budget,
        "Keating-Rudnick: Mobius interval variance ~ H, matching the Haar "
        "average of |tr Sym^n U|^2 = 1",
        mean_should_be=Fraction(0), from_profile=_batch.mobius_from_counts)


@_timed
def exp_var_lambda2(q: int, n: int, h: int, mode: str = "exhaustive",
                    intervals: int = 200, seed: int = 0,
                    budget: int = 10**8) -> ExperimentReport:
    """Variance of the interval Lambda_2 sum, against the Rodgers closed
    form sum of (2d-1)^2 over d <= min(n, n-h-2)."""
    ctx = make_field(q)

    def weight(blk, idx):
        return _batch.batch_lambda2(blk, ctx)

    pred = _rmt.rodgers_integral(n, n - h - 2, mode="closed") if h <= n - 3 else 0
    return _variance_report(
        "var_lambda2", q, n, h, weight, pred, mode, intervals, seed, budget,
        "Rodgers: Var Psi_2 ~ H sum_{d <= min(n, n-h-2)} (2d-1)^2",
        mean_should_be=Fraction((2 * n - 1) * q ** (h + 1)))


@_timed
def exp_var_G(q: int, n: int, Q: Poly, budget: int = 10**8) -> ExperimentReport:
    """Hooley-type variance over progressions: G(n;Q) = sum over coprime
    residues A of (psi(n;Q,A) - q^n/Phi(Q))^2, against q^n (deg Q - 1)."""
    ctx = make_field(q)
    Q = Q.monic()
    m = Q.degree
    if any(e > 1 for _, e in factor(Q).factors):
        raise NotSquarefree("Q must be squarefree")
    if not 2 <= m <= n - 1:
        raise DegreeOutOfRange("need 2 <= deg Q <= n-1")
    q_low = np.array(Q.coeffs[:m], dtype=np.int64)
    psi = np.zeros(q**m, dtype=np.int64)
    for counts, idx in _scan(ctx, n, budget, profile=True):
        lam = _batch.von_mangoldt_from_counts(counts)
        hot = np.flatnonzero(lam)
        rows = _batch.index_rows(idx[hot], n, q)
        np.add.at(psi, _batch.block_index(_batch.reduce_mod(rows, q_low, q), q), lam[hot])
    residues = _batch.index_rows(np.arange(q**m, dtype=np.int64), m, q)
    coprime = np.ones(q**m, dtype=bool)
    for P, _ in factor(Q).factors:
        p_low = np.array(P.monic().coeffs[:P.degree], dtype=np.int64)
        coprime &= (_batch.reduce_rows(residues.copy(), p_low, q) != 0).any(axis=1)
    total = q**n
    phi = int(coprime.sum())
    X = Fraction(total, phi)
    G = Fraction(0)
    for vpsi in psi[coprime]:
        G += (Fraction(int(vpsi)) - X) ** 2
    ratio = G / total
    pred = m - 1
    rel = _relative(ratio, pred)
    verdict = (rel <= 0.4) if q >= ASYMPTOTIC_MIN_Q else None
    return ExperimentReport(
        experiment="var_G",
        params={"q": q, "n": n, "modulus": poly_to_string(Q)},
        empirical={"G_over_qn": float(ratio),
                   "G_exact": f"{G.numerator}/{G.denominator}"},
        predicted={"G_over_qn": pred},
        abs_error=abs(float(ratio) - pred),
        normalized_error=rel * math.sqrt(q),
        verdict=verdict,
        provenance="Keating-Rudnick progressions variance (Hooley analogue): "
                   "G(n;Q) ~ q^n (deg Q - 1) for squarefree Q",
        extra={"phi": phi,
               "phi_matches_formula": phi == euler_phi_poly(Q),
               "lambda_mass_on_coprime": int(psi[coprime].sum())},
    )


@_timed
def exp_var_divisor(q: int, n: int, h: int, k: int = 2,
                    mode: str = "exhaustive", intervals: int = 2000,
                    seed: int = 0, budget: int = 10**8) -> ExperimentReport:
    """Mean square of Delta_k(A;h) = N_{d_k}(A;h) - H binom(n+k-1,k-1),
    against H I_k(n; n-h-2); checks the exact vanishing band
    h > (1-1/k) n - 1.

    Exhaustive mode reads d_k off the sieve's factorization profile of
    every polynomial, so the vanishing band is tested against the direct
    definition d_k(f) = prod binom(e + k-1, k-1) over the factors P^e.
    Sampled mode with k = 2 uses divisor-pair splitting, which scales to
    interval sizes far beyond row enumeration; with k != 2 it evaluates
    d_k row by row.  Values and sums are exact for any k: d_k falls back
    to Python integers past int64.
    """
    ctx = make_field(q)
    if not 0 <= h <= n - 2:
        raise DegreeOutOfRange("need 0 <= h <= n-2")
    H = q ** (h + 1)
    nclasses = q ** (n - h - 1)
    expect = H * math.comb(n + k - 1, k - 1)

    def weight(blk, idx):
        return _divisor_r_rows(ctx, blk, k)

    classes = None if _exhaustive(mode) else _sample_classes(nclasses, intervals, seed)
    if classes is not None and k == 2:
        sums = _divisor2_interval_sums(ctx, n, h, classes, budget)
    else:
        sums = _class_sums(ctx, n, h, weight, classes, budget,
                           functools.partial(_batch.divisor_k_from_counts, k=k))
    deltas = sums.astype(object) - expect
    msq = Fraction(int((deltas * deltas).sum()), len(deltas))
    ratio = msq / H
    vanishing = h > (1 - Fraction(1, k)) * n - 1
    N = n - h - 2
    if N >= 1:
        try:
            pred = float(_rmt.divisor_integral(k, n, N, mode="closed"))
            pred_note = "closed form"
        except ClosedFormNotAvailable:
            mc, se = _rmt.divisor_integral(k, n, N, mode="monte_carlo", seed=seed)
            pred = float(mc)
            pred_note = f"monte carlo (stderr {se:.3g})"
    else:
        pred = 0.0
        pred_note = "empty matrix"
    if vanishing:
        verdict = bool(all(d == 0 for d in deltas))
        rel = None
        abs_err = float(ratio)
    else:
        rel = _relative(ratio, pred) if pred else None
        in_range = n >= 5 and h <= n - 5 and q >= ASYMPTOTIC_MIN_Q
        verdict = (rel <= 0.4) if (in_range and rel is not None) else None
        abs_err = abs(float(ratio) - pred)
    extra = {
        "mean_square_exact": f"{msq.numerator}/{msq.denominator}",
        "vanishing_band": bool(vanishing),
        "prediction_route": pred_note,
    }
    if k == 2 and not vanishing:
        # Keating, Rodgers, Roditty-Gershon and Rudnick also state the k=2
        # constant as a cubic in print; it differs from the matrix integral
        # (= binom(n-2h-1, 3) here), so both values are reported.
        cubic = (n - 2 * h + 5) * (n - 2 * h + 6) * (n - 2 * h + 7) / 6
        extra["printed_cubic_variant"] = cubic
        extra["printed_cubic_matches_integral"] = abs(cubic - pred) < 1e-9
    if mode == "exhaustive":
        extra["mean_matches_identity"] = (
            int(sums.astype(object).sum()) == expect * nclasses)
    return ExperimentReport(
        experiment="var_divisor",
        params={"q": q, "n": n, "h": h, "k": k},
        empirical={"mean_square_over_H": float(ratio)},
        predicted={"variance_over_H": 0.0 if vanishing else pred},
        abs_error=abs_err,
        normalized_error=(rel * math.sqrt(q)) if rel is not None else None,
        verdict=verdict,
        provenance="Keating, Rodgers, Roditty-Gershon and Rudnick: divisor "
                   "variance ~ H I_k(n; n-h-2), exactly zero for h > (1-1/k)n - 1",
        seed=seed,
        mode=mode,
        samples=None if classes is None else int(classes.size),
        extra=extra,
    )


def _divisor2_interval_sums(ctx: FieldCtx, n: int, h: int,
                            classes: np.ndarray, budget: int) -> np.ndarray:
    """N_{d_2}(A;h) per class by counting factor pairs (a, b) with ab in
    I(A;h).

    For deg a = m <= h+1 (or deg b <= h+1 by symmetry) back-substitution
    shows the count is exactly q^{h+1} whatever A is.  In the middle band
    the top coefficients pin b from a, and the remaining m-h-1 product
    coefficients become membership tests vectorized over all of M_m.
    """
    p = ctx.p
    H = p ** (h + 1)
    if n - h - 1 > h + 1:
        const_terms = 2 * (h + 2)
        mids = range(h + 2, n - h - 1)
    else:
        const_terms = n + 1
        mids = range(0)
    work = sum(classes.size * p ** min(m, n - m) for m in mids)
    if work > budget:
        raise BudgetExceeded(f"pair-splitting work {work} exceeds budget {budget}")
    out = np.full(classes.size, const_terms * H, dtype=np.int64)
    handled = set()
    for m in mids:
        mm = min(m, n - m)
        if mm in handled:
            continue
        handled.add(mm)
        mult = 1 if 2 * mm == n else 2
        out += mult * _count_middle_pairs(ctx, n, h, mm, classes)
    return out


def _count_middle_pairs(ctx: FieldCtx, n: int, h: int, m: int,
                        classes: np.ndarray) -> np.ndarray:
    """#{(a,b): deg a = m, deg b = n-m, ab in I(A;h)} per class, for
    h+1 < m <= n/2.

    Writing c_j for the product coefficients, the constraints are
    c_j = A_j for h+1 <= j <= n-1.  The equations with j >= m determine
    b_{j-m} top down; the remaining m-h-1 equations are checks.  Both run
    on a (classes x M_m) grid, in chunks of at most _SHARD cells, in the
    narrowest signed dtype that holds m (p-1)^2 + p, the widest value a
    sum of at most m products takes before it is reduced.
    """
    p = ctx.p
    nb = n - m
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64)
                 if m * (p - 1) ** 2 + p <= np.iinfo(t).max)
    A_all = _batch.index_rows(classes, n - h - 1, p).astype(dtype)
    a_all = _batch.monic_block(ctx, m, 0, p**m).T.astype(dtype)  # a_all[i] = a_i
    width = min(p**m, _SHARD)
    per = max(1, _SHARD // width)
    counts = np.zeros(classes.size, dtype=np.int64)
    for c0 in range(0, classes.size, per):
        A = A_all[c0 : c0 + per, :, None]  # A[:, t] = coefficient at degree h+1+t
        for r0 in range(0, p**m, width):
            a = a_all[:, r0 : r0 + width]
            b = [None] * nb  # b_nb = 1
            for t in range(nb - 1, -1, -1):
                acc = np.repeat(A[:, m + t - h - 1], a.shape[1], axis=1)
                for i in range(1, min(m, nb - t) + 1):
                    acc -= a[m - i] if t + i == nb else a[m - i] * b[t + i]
                b[t] = acc - acc // p * p  # = acc % p; numpy's % is far slower
            ok = True
            for j in range(h + 1, m):
                c = a[0] * b[j]
                for i in range(1, j + 1):
                    c += a[i] * b[j - i]
                ok = ok & (c - c // p * p == A[:, j - h - 1])
            counts[c0 : c0 + per] += ok.sum(axis=1)
    return counts
