"""Self-test of the benchmark at tiny sizes; runs in seconds.

    python3 -m pytest -q bench/test_bench.py

It checks the format of the result line against BENCHMARK.json, that a
directory without the library sources gets no result, and that each
correctness check rejects a deliberately corrupted output.
"""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import run
import workloads

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
fqx = run.load_fqx(REPO)


def _run(monkeypatch, capsys, tmp_path, workload, trace):
    monkeypatch.chdir(REPO)
    cls = workloads.WORKLOADS[workload]
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)], sizes=cls.TINY, out_dir=tmp_path)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(monkeypatch, capsys, tmp_path, workload, trace):
    code, host_line, result = _run(monkeypatch, capsys, tmp_path, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert {"hostname", "nproc", "python", "numpy"} <= set(host_line["host"])
    record = json.loads(
        (tmp_path / f"{workload}-seed7-trace{trace}.json").read_text())
    assert record["host"] == host_line["host"]
    if trace:
        spans = json.loads(
            (tmp_path / f"{workload}-seed7-trace1.spans.json").read_text())
        assert spans["spans"] and "process.trace_overhead_s" in result["metrics"]


def test_self_time_within_wall(monkeypatch, capsys, tmp_path):
    _, _, result = _run(monkeypatch, capsys, tmp_path, "exhaustive-scan", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    wall = m["experiments.exp_var_psi.wall_s"]
    assert 0 <= m["experiments.exp_var_psi.self_s"] <= wall
    assert m["batch.batch_is_irreducible.calls"] > 0
    assert 0 < m["batch.count_roots.rootless_frac"] < 1


def test_no_sources_no_result(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    for f in (REPO / "bench").glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "sampled-rows",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


# correctness checks reject corrupted outputs -----------------------------------


def _round(workload):
    return {op.label: op.call() for op in workload.ops()}


@pytest.fixture(scope="module")
def exhaustive():
    w = workloads.ExhaustiveScan(fqx, 7, workloads.ExhaustiveScan.TINY)
    return w, _round(w)


@pytest.fixture(scope="module")
def sampled():
    w = workloads.SampledRows(fqx, 7, workloads.SampledRows.TINY)
    return w, _round(w)


@pytest.fixture(scope="module")
def spectra():
    w = workloads.FrobeniusSpectra(fqx, 7, workloads.FrobeniusSpectra.TINY)
    return w, _round(w)


def _bump(rep, key, by):
    rep.extra[key] = str(Fraction(rep.extra[key]) + by)


EXHAUSTIVE_CORRUPTIONS = {
    "psi mean off by one": lambda o: _bump(o["var_psi(3,4,0)"], "mean_exact", 1),
    "mobius mean off by one": lambda o: _bump(o["var_mobius(3,4,0)"], "mean_exact", 1),
    "psi variance off by 1/1000": lambda o: _bump(
        o["var_psi(3,4,0)"], "variance_exact", Fraction(1, 1000)),
    "divisor mean square off by one": lambda o: _bump(
        o["var_divisor(3,4,1,k=3)"], "mean_square_exact", 1),
    "Delta_2 nonzero in the band": lambda o: _bump(
        o["var_divisor(3,4,2,k=2)"], "mean_square_exact", Fraction(1, 81)),
    "sum of d_k identity broken": lambda o: o["var_divisor(3,4,1,k=3)"].extra.update(
        mean_matches_identity=False),
}


def test_exhaustive_checks_pass(exhaustive):
    w, out = exhaustive
    assert w.check(out) == []


@pytest.mark.parametrize("name", sorted(EXHAUSTIVE_CORRUPTIONS))
def test_exhaustive_rejects(exhaustive, name):
    w, out = exhaustive
    bad = copy.deepcopy(out)
    EXHAUSTIVE_CORRUPTIONS[name](bad)
    assert w.check(bad)


def test_variance_limit_check(exhaustive):
    w, _ = exhaustive
    pt = workloads.VariancePoint("psi", 19, 5, 0, limit_check=True)
    rep = SimpleNamespace(extra={"mean_exact": "19", "variance_exact": str(3 * 19)})
    assert w.check_point(pt, rep) == []
    rep.extra["variance_exact"] = str(Fraction(3 * 19 * 3, 2))  # Var/H = 4.5
    assert w.check_point(pt, rep)


def _shift_counts(o):
    o["interval_cycles"].extra["counts"][0] += 1


SAMPLED_CORRUPTIONS = {
    "Chowla sum beyond the bound": lambda o: o["chowla"].empirical.update(S=5.01 * 7**3.5),
    "divisor correlation mean off": lambda o: o["divisor_corr"].empirical.update(
        mean_exact=str(Fraction(o["divisor_corr"].empirical["mean_exact"]) + 10)),
    "n-cycle count off by one": _shift_counts,
    "pair-splitting prediction": lambda o: o["pair_split"].predicted.update(
        variance_over_H=5.0),
    "pair-splitting all classes off by 1/1000": lambda o: _bump(
        o["pair_split_all"], "mean_square_exact", Fraction(1, 1000)),
}


def test_sampled_checks_pass(sampled):
    w, out = sampled
    assert w.check(out) == []


@pytest.mark.parametrize("name", sorted(SAMPLED_CORRUPTIONS))
def test_sampled_rejects(sampled, name):
    w, out = sampled
    bad = copy.deepcopy(out)
    SAMPLED_CORRUPTIONS[name](bad)
    assert w.check(bad)


@pytest.mark.parametrize("kernel", ["batch_mobius", "batch_divisor_k", "batch_cycle_types"])
def test_seeded_rows_reject_a_wrong_kernel(sampled, monkeypatch, kernel):
    _, out = sampled
    good = getattr(fqx, kernel)
    monkeypatch.setattr(fqx, kernel, lambda *a: good(*a) + 1)
    fresh = workloads.SampledRows(fqx, 7, workloads.SampledRows.TINY)
    assert fresh.check(out)


def _scale_root(o, label, by):
    chars = o[label]
    for i, (chi, lp) in enumerate(chars):
        if chi.is_primitive and lp.inverse_roots.size:
            roots = lp.inverse_roots.copy()
            roots[-1] *= 1 + by / abs(roots[-1])
            chars[i] = (chi, dataclasses.replace(lp, inverse_roots=roots))
            return


def _nudge_coeffs(o, label):
    o[label] = [(chi, dataclasses.replace(lp, coeffs=lp.coeffs + 1e-6))
                for chi, lp in o[label]]


def _nudge_explicit(o):
    sides, gen = o["explicit_formula"][0]
    lhs, rhs = sides[-1]
    o["explicit_formula"][0] = (sides[:-1] + [(lhs, rhs + 1e-3)], gen)


def _negative_angle(o):
    o["katz_angles"][0, 0] = -0.1


SPECTRA_CORRUPTIONS = {
    "root modulus off by 1e-3": lambda o: _scale_root(o, "lfunctions(q=5,m=3)", 1e-3),
    "a character missing": lambda o: o["lfunctions(q=3,m=3)"].pop(),
    "naive and dft disagree": lambda o: _nudge_coeffs(o, "lfunctions(q=3,m=3)"),
    "explicit formula residual": _nudge_explicit,
    "Katz angle out of range": _negative_angle,
    "Haar moment 4 sigma off": lambda o: o["haar_moments"].update(
        {1: (o["haar_moments"][1][0] + 4 * o["haar_moments"][1][1],
             o["haar_moments"][1][1])}),
}


def test_spectra_checks_pass(spectra):
    w, out = spectra
    assert w.check(out) == []


@pytest.mark.parametrize("name", sorted(SPECTRA_CORRUPTIONS))
def test_spectra_rejects(spectra, name):
    w, out = spectra
    bad = {k: (list(v) if isinstance(v, list) else copy.deepcopy(v))
           for k, v in out.items()}
    SPECTRA_CORRUPTIONS[name](bad)
    assert w.check(bad)


def test_trivial_zero_required(spectra):
    w, out = spectra
    chars = list(out["lfunctions(q=5,m=3)"])
    for i, (chi, lp) in enumerate(chars):
        if chi.is_even and chi.is_primitive:
            roots = lp.inverse_roots.copy()
            roots[np.argmin(np.abs(roots - 1))] = 1.001
            chars[i] = (chi, dataclasses.replace(lp, inverse_roots=roots))
            break
    assert w.check_lfunctions(5, 3, chars)
