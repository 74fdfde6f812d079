"""Batch command line for the F_q[x] statistics experiments.

Every experiment in the library is reachable through exactly one
subcommand; `fqx --help` lists them with the result each one checks.
Output is JSON (default) or CSV with a fixed column schema.  Floats are
rendered to 12 significant digits with no locale dependence, so repeated
runs with the same arguments produce identical output except for the
`millis` timing field.

`fqx sweep` runs one experiment over comma-separated parameter ranges
and emits one CSV row per point; a failing point is recorded in an
`error` column and the sweep continues.

Exit codes: 0 success (verdict passed or not judged), 2 precondition
violation or malformed input, 3 work budget exceeded, 4 a theorem-range
verdict failed, 1 any other library error.

Polynomials on the command line use the coefficient text format of
poly_from_string: "1,0,1" is 1 + x^2, lowest degree first.  A shift list
like "0,1" means the constant shifts 0 and 1; use ';' separators for
non-constant shifts ("0,1;1,1" is the pair x, 1 + x, and a trailing ';'
forces the single-polynomial reading, so "0,1;" is just x).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import rmt
from .dirichlet import build_unit_group, katz_average, l_polynomial, list_characters
from .errors import (
    BudgetExceeded,
    ClosedFormNotAvailable,
    FqxError,
    PreconditionError,
)
from .experiments import (
    ExperimentReport,
    ShiftTuple,
    _timed,
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
)
from .field import make_field
from .polyring import factor, is_irreducible, poly_from_string, poly_to_string

CSV_COLUMNS = ("command", "q", "n", "h", "k", "r", "modulus", "empirical",
               "predicted", "abs_error", "normalized_error", "samples",
               "seed", "millis")


# formatting ----------------------------------------------------------------------

def _g12(x) -> str:
    """One CSV cell; floats at 12 significant digits."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    if isinstance(x, (int, str)):
        return str(x)
    if isinstance(x, complex):
        return f"{x.real:.12g}{x.imag:+.12g}j"
    if isinstance(x, np.generic):
        return _g12(x.item())
    return str(x)


def _jsonable(x):
    """JSON payloads with every float rounded to 12 significant digits."""
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    # bool before int: bool is an int subclass
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, complex):
        return {"re": float(f"{x.real:.12g}"), "im": float(f"{x.imag:.12g}")}
    if isinstance(x, np.generic):
        return _jsonable(x.item())
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    return str(x)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _write(args, text: str):
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _first(d: dict):
    for v in d.values():
        return v
    return None


def _report_row(command: str, point: dict, args, rep: ExperimentReport | None):
    """One fixed-schema row; `point` holds the parameter values for this run."""
    if rep is None:
        emp = pred = ab = nerr = samples = millis = None
        seed = getattr(args, "seed", None)
    else:
        emp = _first(rep.empirical)
        pred = _first(rep.predicted)
        ab, nerr = rep.abs_error, rep.normalized_error
        samples, seed, millis = rep.samples, rep.seed, rep.millis
    return [command,
            _g12(point.get("q")), _g12(point.get("n")), _g12(point.get("h")),
            _g12(point.get("k")), _g12(point.get("r")),
            getattr(args, "modulus", None) or "",
            _g12(emp), _g12(pred), _g12(ab), _g12(nerr),
            _g12(samples), _g12(seed), _g12(millis)]


def _emit_report(args, command: str, rep: ExperimentReport) -> int:
    if args.format == "csv":
        point = {key: getattr(args, key, None) for key in ("q", "n", "h", "k", "r")}
        text = _csv_text(CSV_COLUMNS, [_report_row(command, point, args, rep)])
    else:
        text = json.dumps(_jsonable(rep.to_dict()), indent=2)
    _write(args, text)
    return 4 if rep.verdict is False else 0


# argument parsing helpers ---------------------------------------------------------

def _parse_poly_list(ctx, text: str):
    if ";" in text:
        toks = [t.strip() for t in text.split(";") if t.strip()]
    else:
        toks = [t.strip() for t in text.split(",")]
    return tuple(poly_from_string(ctx, t) for t in toks)


def _shift_tuple(ctx, args) -> ShiftTuple:
    shifts = _parse_poly_list(ctx, args.shifts)
    exps = None
    if getattr(args, "exps", None):
        exps = tuple(int(t) for t in args.exps.split(","))
    return ShiftTuple(shifts, exps)


def _int_list(text: str):
    return [int(t) for t in text.split(",") if t.strip()]


def _or(value, default):
    return default if value is None else value


# experiment builders --------------------------------------------------------------

def _b_prime_count(a):
    return exp_prime_count(a.q, a.n, mode=_or(a.mode, "exhaustive"),
                           budget=a.budget)


def _b_interval_primes(a):
    return exp_interval_primes(a.q, a.n, a.h, mode=_or(a.mode, "sampled"),
                               intervals=_or(a.intervals, 5), seed=a.seed,
                               budget=a.budget)


def _b_interval_cycles(a):
    lam = tuple(int(t) for t in a.lam.split(","))
    return exp_interval_cycles(a.q, a.n, a.h, lam, mode=_or(a.mode, "sampled"),
                               intervals=_or(a.intervals, 5), seed=a.seed,
                               budget=a.budget)


def _b_cycle_census(a):
    return exp_cycle_census(a.q, a.n, budget=a.budget)


def _b_ap_primes(a):
    ctx = make_field(a.q)
    return exp_ap_primes(a.q, a.n, poly_from_string(ctx, a.modulus),
                         poly_from_string(ctx, a.residue), budget=a.budget)


def _b_chowla(a):
    ctx = make_field(a.q)
    return exp_chowla(a.q, a.n, _shift_tuple(ctx, a),
                      mode=_or(a.mode, "exhaustive"),
                      samples=_or(a.samples, 200_000), seed=a.seed,
                      budget=a.budget)


def _b_twin(a):
    ctx = make_field(a.q)
    return exp_twin(a.q, a.n, ShiftTuple(_parse_poly_list(ctx, a.shifts)),
                    budget=a.budget)


def _b_divisor_corr(a):
    ctx = make_field(a.q)
    return exp_divisor_corr(a.q, a.n, _or(a.r, 2), poly_from_string(ctx, a.shift),
                            mode=_or(a.mode, "exhaustive"),
                            samples=_or(a.samples, 200_000), seed=a.seed,
                            budget=a.budget)


def _b_joint_cycles(a):
    ctx = make_field(a.q)
    return exp_joint_cycles(a.q, a.n, poly_from_string(ctx, a.alpha),
                            budget=a.budget)


def _b_var_psi(a):
    return exp_var_psi(a.q, a.n, a.h, mode=_or(a.mode, "exhaustive"),
                       intervals=_or(a.intervals, 2000), seed=a.seed,
                       budget=a.budget)


def _b_var_mobius(a):
    return exp_var_mobius(a.q, a.n, a.h, mode=_or(a.mode, "exhaustive"),
                          intervals=_or(a.intervals, 2000), seed=a.seed,
                          budget=a.budget)


def _b_var_lambda2(a):
    return exp_var_lambda2(a.q, a.n, a.h, mode=_or(a.mode, "exhaustive"),
                           intervals=_or(a.intervals, 200), seed=a.seed,
                           budget=a.budget)


def _b_var_g(a):
    ctx = make_field(a.q)
    return exp_var_G(a.q, a.n, poly_from_string(ctx, a.modulus), budget=a.budget)


def _b_var_divisor(a):
    return exp_var_divisor(a.q, a.n, a.h, k=_or(a.k, 2),
                           mode=_or(a.mode, "exhaustive"),
                           intervals=_or(a.intervals, 2000), seed=a.seed,
                           budget=a.budget)


# name -> (builder, sweepable axes, flags sweep must receive, legal modes)
EXPERIMENTS = {
    "prime-count": (_b_prime_count, ("q", "n"), (), ("exhaustive", "necklace_only")),
    "interval-primes": (_b_interval_primes, ("q", "n", "h"), ("h",),
                        ("exhaustive", "sampled")),
    "interval-cycles": (_b_interval_cycles, ("q", "n", "h"), ("h", "lam"),
                        ("exhaustive", "sampled")),
    "cycle-census": (_b_cycle_census, ("q", "n"), (), ()),
    "ap-primes": (_b_ap_primes, ("q", "n"), ("modulus", "residue"), ()),
    "chowla": (_b_chowla, ("q", "n"), ("shifts",), ("exhaustive", "sampled")),
    "twin": (_b_twin, ("q", "n"), ("shifts",), ()),
    "divisor-corr": (_b_divisor_corr, ("q", "n", "r"), ("shift",),
                     ("exhaustive", "sampled")),
    "joint-cycles": (_b_joint_cycles, ("q", "n"), ("alpha",), ()),
    "var-psi": (_b_var_psi, ("q", "n", "h"), ("h",), ("exhaustive", "sampled")),
    "var-mobius": (_b_var_mobius, ("q", "n", "h"), ("h",),
                   ("exhaustive", "sampled")),
    "var-lambda2": (_b_var_lambda2, ("q", "n", "h"), ("h",),
                    ("exhaustive", "sampled")),
    "var-g": (_b_var_g, ("q", "n"), ("modulus",), ()),
    "var-divisor": (_b_var_divisor, ("q", "n", "h", "k"), ("h",),
                    ("exhaustive", "sampled")),
}


# runners -------------------------------------------------------------------------

def _run_report(a) -> int:
    return _emit_report(a, a.command, a.build(a))


def _run_sweep(a) -> int:
    build, axes, needed, modes = EXPERIMENTS[a.command_name]
    if a.mode is not None and a.mode not in modes:
        raise PreconditionError(
            f"{a.command_name} has no mode {a.mode!r}; choose from {modes}")
    lists = {}
    for key in ("q", "n", "h", "k", "r"):
        text = getattr(a, key)
        if text is None:
            continue
        if key not in axes:
            raise PreconditionError(f"{a.command_name} does not take --{key}")
        lists[key] = _int_list(text)
    for key in needed:
        provided = key in lists if key in ("q", "n", "h", "k", "r") \
            else getattr(a, key, None) is not None
        if not provided:
            raise PreconditionError(f"{a.command_name} needs --{key}")
    keys = [key for key in ("q", "n", "h", "k", "r") if key in lists]
    rows = []
    for combo in itertools.product(*(lists[key] for key in keys)):
        point = dict(zip(keys, combo))
        ns = argparse.Namespace(**vars(a))
        for key, value in point.items():
            setattr(ns, key, value)
        try:
            rep = build(ns)
            rows.append(_report_row(a.command_name, point, ns, rep) + [""])
        except Exception as e:
            rows.append(_report_row(a.command_name, point, ns, None)
                        + [f"{type(e).__name__}: {e}"])
    _write(a, _csv_text(CSV_COLUMNS + ("error",), rows))
    return 0


def _run_lfunctions(a) -> int:
    ctx = make_field(a.q)
    group = build_unit_group(poly_from_string(ctx, a.modulus), seed=a.seed,
                             budget=a.budget)
    records = []
    for chi in list_characters(group, filter=a.filter):
        if chi.is_trivial:
            continue
        lp = l_polynomial(chi, mode=a.lmode)
        angles = None
        if lp.angles is not None:
            angles = np.sort(np.mod(np.asarray(lp.angles, dtype=float),
                                    2.0 * math.pi))
        records.append((chi, lp, angles))
    if a.format == "json":
        payload = {
            "q": a.q,
            "modulus": a.modulus,
            "filter": a.filter,
            "characters": [{
                "character": chi.label(),
                "even": chi.is_even,
                "primitive": chi.is_primitive,
                "degree": lp.degree,
                "coefficients": [complex(c) for c in lp.coeffs],
                "angles": None if ang is None else list(ang),
            } for chi, lp, ang in records],
        }
        text = json.dumps(_jsonable(payload), indent=2)
    else:
        rows = [[chi.label(),
                 _g12(chi.is_even),
                 _g12(chi.is_primitive),
                 ";".join(_g12(complex(c)) for c in lp.coeffs),
                 "" if ang is None else ";".join(f"{x:.12f}" for x in ang)]
                for chi, lp, ang in records]
        text = _csv_text(("character", "even", "primitive", "coefficients",
                          "angles"), rows)
    _write(a, text)
    return 0


def _run_factor(a) -> int:
    ctx = make_field(a.q)
    f = poly_from_string(ctx, a.poly)
    fac = factor(f, seed=a.seed)
    pairs = [(poly_to_string(P), e) for P, e in fac.factors]
    if a.format == "json":
        payload = {
            "q": a.q,
            "input": poly_to_string(f),
            "leading_coefficient": f.lc(),
            "irreducible": is_irreducible(f) if f.degree >= 1 else False,
            "factors": [{"factor": s, "multiplicity": e} for s, e in pairs],
        }
        text = json.dumps(_jsonable(payload), indent=2)
    else:
        text = _csv_text(("factor", "multiplicity"),
                         [[s, str(e)] for s, e in pairs])
    _write(a, text)
    return 0


def _run_matrix_integral(a) -> int:
    return _emit_report(a, "matrix-integral", _matrix_integral_report(a))


@_timed
def _matrix_integral_report(a) -> ExperimentReport:
    mode = _or(a.mode, "closed")
    samples = _or(a.samples, 100_000)
    stat = None
    if a.family == "power-trace":
        if a.j is None:
            raise PreconditionError("power-trace needs --j")
        params = {"family": a.family, "j": a.j, "N": a.N}
        closed = float(min(a.j, a.N))
        stat = rmt.PowerTraceSquared(a.j)
    elif a.family == "divisor":
        if a.k is None or a.m is None:
            raise PreconditionError("divisor needs --k and --m")
        params = {"family": a.family, "k": a.k, "m": a.m, "N": a.N}
        try:
            closed = rmt.divisor_integral(a.k, a.m, a.N, mode="closed")
        except ClosedFormNotAvailable:
            if mode == "closed":
                raise
            closed = None
    else:
        if a.n is None:
            raise PreconditionError("rodgers needs --n")
        params = {"family": a.family, "n": a.n, "N": a.N}
        closed = rmt.rodgers_integral(a.n, a.N, mode="closed")

    if mode == "closed":
        empirical = {"value": closed}
        predicted = {"closed_form": closed}
        ab = nerr = verdict = used = None
    else:
        if a.family == "power-trace":
            mean, err = rmt.mc_integral(stat, a.N, samples, seed=a.seed)
        elif a.family == "divisor":
            mean, err = rmt.divisor_integral(a.k, a.m, a.N, mode="monte_carlo",
                                             samples=samples, seed=a.seed)
        else:
            mean, err = rmt.rodgers_integral(a.n, a.N, mode="monte_carlo",
                                             samples=samples, seed=a.seed)
        empirical = {"value": float(mean), "stderr": float(err)}
        predicted = {"closed_form": closed} if closed is not None else {}
        ab = abs(mean - closed) if closed is not None else None
        nerr = ab / err if ab is not None and err > 0 else None
        verdict = bool(ab <= 3 * err) if closed is not None else None
        used = samples
    return ExperimentReport(
        experiment="matrix_integral",
        params=params,
        empirical=empirical,
        predicted=predicted,
        abs_error=ab,
        normalized_error=nerr,
        verdict=verdict,
        provenance="Diaconis-Shahshahani trace moments; secular-coefficient "
                   "integrals I_k (Keating, Rodgers, Roditty-Gershon and "
                   "Rudnick); Rodgers closed form for the Lambda_2 integrand",
        seed=a.seed if mode == "monte_carlo" else None,
        mode=mode,
        samples=used)


def _run_katz(a) -> int:
    return _emit_report(a, "katz", _katz_report(a))


@_timed
def _katz_report(a) -> ExperimentReport:
    j = _or(a.j, 1)
    if a.statistic == "power":
        stat = rmt.PowerTraceSquared(j)
        name = f"|tr U^{j}|^2"
    else:
        stat = rmt.SymPowerTraceSquared(j)
        name = f"|tr Sym^{j} U|^2"
    samples = _or(a.samples, 100_000)
    empirical, reference = katz_average(a.N, a.q, stat, samples=samples,
                                        seed=a.seed)
    ab = abs(empirical - reference)
    # tolerance calibrated only for the leading trace moment at large-ish q
    judged = a.statistic == "power" and j == 1 and a.q >= 11
    return ExperimentReport(
        experiment="katz",
        params={"q": a.q, "N": a.N, "statistic": name},
        empirical={"average": float(empirical)},
        predicted={"haar": float(reference)},
        abs_error=ab,
        normalized_error=ab * math.sqrt(a.q),
        verdict=bool(ab <= 0.35) if judged else None,
        provenance="Katz equidistribution: Frobenii of even primitive "
                   "characters mod x^(N+2) approach Haar measure on U(N) as "
                   "q grows; reference is the Haar Monte Carlo average",
        seed=a.seed,
        mode="monte_carlo",
        samples=samples)


# parser --------------------------------------------------------------------------

_EPILOG = """exit codes:
  0  success (verdict passed, or configuration outside any theorem range)
  2  precondition violation or malformed input
  3  work budget exceeded (raise --budget to allow more enumeration)
  4  a theorem-range verdict failed
  1  any other library error

polynomial text format: comma-separated coefficients, lowest degree
first ("1,0,1" is 1 + x^2).  Shift lists: "0,1" is two constant shifts;
';'-separated tokens are full polynomials ("0,1;" is the single shift x).
"""


def _common(p, fmt_default="json"):
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed for sampled routes (default 0)")
    p.add_argument("--budget", type=int, default=10**8,
                   help="cap on enumerated rows; exceeding it is an error, "
                        "never a silent truncation (default 10^8)")
    p.add_argument("--format", choices=("json", "csv"), default=fmt_default,
                   help=f"output format (default {fmt_default})")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write output to PATH instead of stdout")


def _arg_q(p, text="prime field size q"):
    p.add_argument("--q", type=int, required=True, help=text)


def _arg_n(p, text="degree n of the monic polynomials"):
    p.add_argument("--n", type=int, required=True, help=text)


def _arg_h(p):
    p.add_argument("--h", type=int, required=True,
                   help="interval parameter; I(A;h) has H = q^(h+1) members")


def _arg_mode(p, choices, default):
    p.add_argument("--mode", choices=choices, default=None,
                   help=f"computation route (default {default})")


def _arg_intervals(p, default):
    p.add_argument("--intervals", type=int, default=None,
                   help=f"number of interval classes to sample (default {default})")


def _arg_samples(p, default):
    p.add_argument("--samples", type=int, default=None,
                   help=f"random draws for sampled routes (default {default})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fqx",
        description="Arithmetic statistics over F_q[x]: prime counts, cycle "
                    "structure, Mobius correlations, divisor sums, variance "
                    "theorems, Dirichlet L-functions, and the unitary matrix "
                    "integrals they converge to.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="command",
                                required=True)

    p = sub.add_parser(
        "prime-count",
        help="monic irreducibles of degree n, exhaustive vs the necklace "
             "formula and the q^n/n main term (prime polynomial theorem)")
    _arg_q(p)
    _arg_n(p)
    _arg_mode(p, ("exhaustive", "necklace_only"), "exhaustive")
    _common(p)
    p.set_defaults(run=_run_report, build=_b_prime_count)

    p = sub.add_parser(
        "interval-primes",
        help="prime counts in short intervals I(A;h) vs H/n (Bank, "
             "Bary-Soroker and Rosenzweig)")
    _arg_q(p)
    _arg_n(p)
    _arg_h(p)
    _arg_mode(p, ("exhaustive", "sampled"), "sampled")
    _arg_intervals(p, 5)
    _common(p)
    p.set_defaults(run=_run_report, build=_b_interval_primes)

    p = sub.add_parser(
        "interval-cycles",
        help="counts of one cycle type in short intervals vs p(lambda) H "
             "(Bank, Bary-Soroker and Rosenzweig)")
    _arg_q(p)
    _arg_n(p)
    _arg_h(p)
    p.add_argument("--lam", required=True, metavar="C1,...,CN",
                   help="cycle type as comma counts: c_j parts of size j, "
                        "summing j*c_j = n")
    _arg_mode(p, ("exhaustive", "sampled"), "sampled")
    _arg_intervals(p, 5)
    _common(p)
    p.set_defaults(run=_run_report, build=_b_interval_cycles)

    p = sub.add_parser(
        "cycle-census",
        help="full cycle-type census over M_n vs the Cauchy measure "
             "p(lambda), exact rational arithmetic")
    _arg_q(p)
    _arg_n(p)
    _common(p)
    p.set_defaults(run=_run_report, build=_b_cycle_census)

    p = sub.add_parser(
        "ap-primes",
        help="primes in the progression f = A mod Q vs pi_q(n)/Phi(Q) "
             "(Dirichlet for F_q[x])")
    _arg_q(p)
    _arg_n(p)
    p.add_argument("--modulus", required=True, metavar="POLY",
                   help="modulus Q in coefficient text format")
    p.add_argument("--residue", required=True, metavar="POLY",
                   help="residue A, coprime to Q")
    _common(p)
    p.set_defaults(run=_run_report, build=_b_ap_primes)

    p = sub.add_parser(
        "chowla",
        help="Mobius correlation sum over M_n for a shift tuple; O(q^(n-1/2)) "
             "for odd q via Pellet's discriminant formula")
    _arg_q(p)
    _arg_n(p)
    p.add_argument("--shifts", required=True, metavar="LIST",
                   help="distinct shifts; \"0,1\" is two constants, use ';' "
                        "for polynomials")
    p.add_argument("--exps", default=None, metavar="E1,...,ER",
                   help="exponents in {1,2}, one per shift, not all even "
                        "(default all 1)")
    _arg_mode(p, ("exhaustive", "sampled"), "exhaustive")
    _arg_samples(p, 200_000)
    _common(p)
    p.set_defaults(run=_run_report, build=_b_chowla)

    p = sub.add_parser(
        "twin",
        help="simultaneous irreducibility of f + a_1, ..., f + a_r vs "
             "q^n/n^r (Hardy-Littlewood analogue; Bender-Pollack)")
    _arg_q(p)
    _arg_n(p)
    p.add_argument("--shifts", required=True, metavar="LIST",
                   help="distinct shifts; \"0,1\" is two constants, use ';' "
                        "for polynomials")
    _common(p)
    p.set_defaults(run=_run_report, build=_b_twin)

    p = sub.add_parser(
        "divisor-corr",
        help="mean of d_r(f) d_r(f+shift) over M_n vs binom(n+r-1,r-1)^2 "
             "(Andrade, Bary-Soroker and Rudnick)")
    _arg_q(p)
    _arg_n(p)
    p.add_argument("--r", type=int, default=None,
                   help="divisor order r (default 2)")
    p.add_argument("--shift", required=True, metavar="POLY",
                   help="nonzero shift polynomial of degree < n")
    _arg_mode(p, ("exhaustive", "sampled"), "exhaustive")
    _arg_samples(p, 200_000)
    _common(p)
    p.set_defaults(run=_run_report, build=_b_divisor_corr)

    p = sub.add_parser(
        "joint-cycles",
        help="joint cycle types of (f, f+alpha) vs the product of Cauchy "
             "measures: asymptotic independence")
    _arg_q(p)
    _arg_n(p)
    p.add_argument("--alpha", required=True, metavar="POLY",
                   help="nonzero shift of degree < n")
    _common(p)
    p.set_defaults(run=_run_report, build=_b_joint_cycles)

    p = sub.add_parser(
        "var-psi",
        help="variance of the interval sum of Lambda vs H(n-h-2) "
             "(Keating-Rudnick, via the Diaconis-Shahshahani integral)")
    _arg_q(p)
    _arg_n(p)
    _arg_h(p)
    _arg_mode(p, ("exhaustive", "sampled"), "exhaustive")
    _arg_intervals(p, 2000)
    _common(p)
    p.set_defaults(run=_run_report, build=_b_var_psi)

    p = sub.add_parser(
        "var-mobius",
        help="variance of the interval Mobius sum vs H (Keating-Rudnick; "
             "Haar average of |tr Sym^n U|^2)")
    _arg_q(p)
    _arg_n(p)
    _arg_h(p)
    _arg_mode(p, ("exhaustive", "sampled"), "exhaustive")
    _arg_intervals(p, 2000)
    _common(p)
    p.set_defaults(run=_run_report, build=_b_var_mobius)

    p = sub.add_parser(
        "var-lambda2",
        help="variance of the interval Lambda_2 sum vs the Rodgers closed "
             "form H sum (2d-1)^2")
    _arg_q(p)
    _arg_n(p)
    _arg_h(p)
    _arg_mode(p, ("exhaustive", "sampled"), "exhaustive")
    _arg_intervals(p, 200)
    _common(p)
    p.set_defaults(run=_run_report, build=_b_var_lambda2)

    p = sub.add_parser(
        "var-g",
        help="progression variance G(n;Q) vs q^n (deg Q - 1) for squarefree "
             "Q (Keating-Rudnick, Hooley analogue)")
    _arg_q(p)
    _arg_n(p)
    p.add_argument("--modulus", required=True, metavar="POLY",
                   help="squarefree modulus Q with 2 <= deg Q <= n-1")
    _common(p)
    p.set_defaults(run=_run_report, build=_b_var_g)

    p = sub.add_parser(
        "var-divisor",
        help="mean square of the centered divisor count Delta_k(A;h) vs "
             "H I_k(n; n-h-2), exactly zero for h > (1-1/k)n - 1 (Keating, "
             "Rodgers, Roditty-Gershon and Rudnick)")
    _arg_q(p)
    _arg_n(p)
    _arg_h(p)
    p.add_argument("--k", type=int, default=None,
                   help="divisor order k (default 2)")
    _arg_mode(p, ("exhaustive", "sampled"), "exhaustive")
    _arg_intervals(p, 2000)
    _common(p)
    p.set_defaults(run=_run_report, build=_b_var_divisor)

    p = sub.add_parser(
        "l-functions",
        help="Dirichlet L-polynomials mod Q: coefficients, inverse roots, "
             "and unitarized Frobenius angles (Weil bound |gamma| = sqrt(q))")
    _arg_q(p)
    p.add_argument("--modulus", required=True, metavar="POLY",
                   help="modulus Q in coefficient text format")
    p.add_argument("--filter", choices=("all", "even", "primitive",
                                        "even_primitive"), default="all",
                   help="character family; the trivial character is always "
                        "skipped (default all)")
    p.add_argument("--lmode", choices=("naive", "dft"), default="naive",
                   help="coefficient computation route (default naive)")
    _common(p, fmt_default="csv")
    p.set_defaults(run=_run_lfunctions)

    p = sub.add_parser(
        "factor",
        help="factor one polynomial into monic irreducibles "
             "(Cantor-Zassenhaus)")
    _arg_q(p)
    p.add_argument("--poly", required=True, metavar="POLY",
                   help="polynomial in coefficient text format")
    _common(p)
    p.set_defaults(run=_run_factor)

    p = sub.add_parser(
        "matrix-integral",
        help="unitary matrix integrals: Diaconis-Shahshahani |tr U^j|^2, "
             "divisor integrals I_k(m;N), and the Rodgers Lambda_2 form; "
             "closed form vs Monte Carlo")
    p.add_argument("--family", choices=("power-trace", "divisor", "rodgers"),
                   required=True, help="which integrand")
    p.add_argument("--N", type=int, required=True, help="matrix size")
    p.add_argument("--j", type=int, default=None,
                   help="power-trace: trace power j")
    p.add_argument("--k", type=int, default=None, help="divisor: order k")
    p.add_argument("--m", type=int, default=None,
                   help="divisor: coefficient index m")
    p.add_argument("--n", type=int, default=None, help="rodgers: degree n")
    _arg_mode(p, ("closed", "monte_carlo"), "closed")
    _arg_samples(p, 100_000)
    _common(p)
    p.set_defaults(run=_run_matrix_integral)

    p = sub.add_parser(
        "katz",
        help="average of a class statistic over Frobenii of even primitive "
             "characters mod x^(N+2) vs the Haar average on U(N) (Katz "
             "equidistribution)")
    _arg_q(p)
    p.add_argument("--N", type=int, required=True,
                   help="unitarized Frobenius dimension N >= 2")
    p.add_argument("--statistic", choices=("power", "sym"), default="power",
                   help="|tr U^j|^2 or |tr Sym^j U|^2 (default power)")
    p.add_argument("--j", type=int, default=None,
                   help="statistic order (default 1)")
    _arg_samples(p, 100_000)
    _common(p)
    p.set_defaults(run=_run_katz)

    p = sub.add_parser(
        "sweep",
        help="run one experiment over comma-separated ranges of q, n, h, k, "
             "r; one CSV row per point, per-point errors recorded in an "
             "`error` column")
    p.add_argument("--command", dest="command_name", required=True,
                   choices=sorted(EXPERIMENTS),
                   help="which experiment to sweep")
    p.add_argument("--q", required=True, metavar="LIST",
                   help="comma-separated q values (empty list for a header-"
                        "only dry run)")
    p.add_argument("--n", required=True, metavar="LIST",
                   help="comma-separated n values")
    p.add_argument("--h", default=None, metavar="LIST",
                   help="comma-separated h values")
    p.add_argument("--k", default=None, metavar="LIST",
                   help="comma-separated k values (var-divisor)")
    p.add_argument("--r", default=None, metavar="LIST",
                   help="comma-separated r values (divisor-corr)")
    p.add_argument("--lam", default=None, metavar="C1,...,CN")
    p.add_argument("--modulus", default=None, metavar="POLY")
    p.add_argument("--residue", default=None, metavar="POLY")
    p.add_argument("--shifts", default=None, metavar="LIST")
    p.add_argument("--exps", default=None, metavar="E1,...,ER")
    p.add_argument("--shift", default=None, metavar="POLY")
    p.add_argument("--alpha", default=None, metavar="POLY")
    p.add_argument("--mode", default=None,
                   help="computation route, if the experiment has one")
    p.add_argument("--intervals", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    _common(p, fmt_default="csv")
    p.set_defaults(run=_run_sweep)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (PreconditionError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FqxError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
