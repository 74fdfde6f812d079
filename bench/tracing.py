"""Spans around the calls into each fqx layer, and the per-layer metrics
derived from them.

The tracer wraps every public function of the traced modules and rebinds
it wherever the package holds a reference to it: the module attribute
itself and every name another module bound at import time (for example
`experiments` binds `factor` and `cycle_type` from `polyring`).  Calls
between functions of one module go through the module globals, so they
are traced too, which is what makes a span's self time meaningful.

Spans are kept in memory while the benchmark runs and written out once at
the end.  Each span is (name, start, end, parent, rows): rows is the
leading dimension of the returned array, or -1 when the result is not an
array.  Self time is a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("batch", "experiments", "polyring", "dirichlet", "rmt")

# Not wrapped: the scalar arithmetic behind Poly's operators (every `%` calls
# divrem).  A span per call would cost more than the call itself; the time
# shows up as self time of the polyring function that made the calls.
UNTRACED = {"polyring": {"divrem", "gcd", "powmod"}}

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
BATCH_KERNELS = (
    "monic_block", "count_roots", "x_power_q_mod", "compose_mod",
    "block_mulmod", "mult_matrix", "batch_det", "batch_is_irreducible",
    "batch_disc", "batch_mobius", "batch_gcd_degree", "batch_cycle_types",
    "reduce_mod", "batch_exponent_counts", "batch_divisor_k",
    "proper_prime_power_indices",
)
EXPERIMENTS = ("exp_var_psi", "exp_var_mobius", "exp_var_divisor",
               "exp_chowla", "exp_divisor_corr", "exp_interval_cycles")
POLYRING = ("is_irreducible", "cycle_type", "factor")
DIRICHLET = ("build_unit_group", "l_polynomial",
             "frobenius_angles_even_primitive", "explicit_formula_check",
             "generating_identity_error")
RMT = ("sample_angles", "mc_integral")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units: dict[str, str] = {}
    for fn in BATCH_KERNELS:
        units[f"batch.{fn}.self_s"] = "s"
        units[f"batch.{fn}.calls"] = "count"
        units[f"batch.{fn}.rows"] = "count"
    units["batch.count_roots.rootless_frac"] = "ratio"
    units["batch.count_roots.rootless_frac_theory"] = "ratio"
    units["batch.batch_is_irreducible.irreducible_frac"] = "ratio"
    units["batch.batch_is_irreducible.irreducible_frac_theory"] = "ratio"
    for fn in EXPERIMENTS:
        units[f"experiments.{fn}.wall_s"] = "s"
        units[f"experiments.{fn}.self_s"] = "s"
    for layer, fns in (("polyring", POLYRING), ("dirichlet", DIRICHLET),
                       ("rmt", RMT)):
        for fn in fns:
            units[f"{layer}.{fn}.self_s"] = "s"
            units[f"{layer}.{fn}.calls"] = "count"
    units["process.cpu_s"] = "s"
    units["process.trace_overhead_s"] = "s"
    return units


def rootless_theory(n: int) -> float:
    """Limit as q grows of the share of monic degree-n polynomials with no
    root: sum_{j <= n} (-1)^j / j!."""
    return sum((-1) ** j / math.factorial(j) for j in range(n + 1))


def irreducible_theory(q: int, n: int) -> float:
    """pi_q(n) / q^n, with pi_q(n) from the necklace formula."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _int_mobius(d) * q ** (n // d)
    return total / n / q**n


def _int_mobius(n: int) -> int:
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def _rows(out) -> int:
    if isinstance(out, tuple) and out and isinstance(out[0], np.ndarray):
        out = out[0]
    if isinstance(out, np.ndarray) and out.ndim >= 1:
        return int(out.shape[0])
    return -1


class Tracer:
    """Installs span-recording wrappers into a loaded fqx package.

    Recording is off until `on` is set, so one process can time untraced
    and traced rounds of the same workload.
    """

    def __init__(self, package):
        self.on = False
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent, rows]
        self._stack: list[int] = []
        # sieve survivors: name -> [rows, survivors, rows * theoretical share]
        self.sieves = defaultdict(lambda: [0, 0, 0.0])
        self._install(package)

    def _install(self, package):
        wrapped = {}
        prefix = package.__name__ + "."
        for layer in LAYERS:
            mod = sys.modules[prefix + layer]
            skip = UNTRACED.get(layer, set())
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or attr in skip
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
        modules = [package] + [m for name, m in sys.modules.items()
                               if name.startswith(prefix)]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sieve = {"batch.count_roots": self._count_roots,
                 "batch.batch_is_irreducible": self._is_irreducible}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1, -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[4] = _rows(out)
            if sieve is not None:
                sieve(args, out)
            return out

        return traced

    def _count_roots(self, args, out):
        block = args[0]
        acc = self.sieves["batch.count_roots"]
        acc[0] += block.shape[0]
        acc[1] += int((out == 0).sum())
        acc[2] += block.shape[0] * rootless_theory(block.shape[1])

    def _is_irreducible(self, args, out):
        block, ctx = args[0], args[1]
        acc = self.sieves["batch.batch_is_irreducible"]
        acc[0] += block.shape[0]
        acc[1] += int(out.sum())
        acc[2] += block.shape[0] * irreducible_theory(ctx.p, block.shape[1])

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per traced round, from the recorded spans."""
        nspans = len(self.spans)
        dur = np.empty(nspans)
        child = np.zeros(nspans)
        nid = np.empty(nspans, dtype=np.int64)
        rows = np.empty(nspans, dtype=np.int64)
        outer = np.ones(nspans, dtype=bool)  # no ancestor of the same name
        for i, (name, start, end, parent, r) in enumerate(self.spans):
            dur[i] = end - start
            nid[i] = name
            rows[i] = r
            if parent >= 0:
                child[parent] += end - start
                a = parent
                while a >= 0 and outer[i]:
                    outer[i] = self.spans[a][0] != name
                    a = self.spans[a][3]
        self_s = dur - child
        by_name = {name: i for i, name in enumerate(self.names)}

        def pick(name):
            i = by_name.get(name)
            return nid == i if i is not None else np.zeros(nspans, dtype=bool)

        out: dict[str, float] = {}
        for layer, fns in (("batch", BATCH_KERNELS), ("polyring", POLYRING),
                           ("dirichlet", DIRICHLET), ("rmt", RMT)):
            for fn in fns:
                sel = pick(f"{layer}.{fn}")
                out[f"{layer}.{fn}.self_s"] = float(self_s[sel].sum()) / rounds
                out[f"{layer}.{fn}.calls"] = int(sel.sum()) / rounds
                if layer == "batch":
                    r = rows[sel]
                    out[f"{layer}.{fn}.rows"] = int(r[r > 0].sum()) / rounds
        for fn in EXPERIMENTS:
            sel = pick(f"experiments.{fn}")
            out[f"experiments.{fn}.wall_s"] = float(dur[sel & outer].sum()) / rounds
            out[f"experiments.{fn}.self_s"] = float(self_s[sel].sum()) / rounds
        for name, metric in (("batch.count_roots", "rootless_frac"),
                             ("batch.batch_is_irreducible", "irreducible_frac")):
            total, survivors, theory = self.sieves[name]
            out[f"{name}.{metric}"] = survivors / total if total else 0.0
            out[f"{name}.{metric}_theory"] = theory / total if total else 0.0
        return out

    def write(self, path):
        """All spans as JSON: a name table and [name, start, end, parent,
        rows] rows, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "fields": ["name", "start", "end", "parent", "rows"],
                "spans": [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7),
                           s[3], s[4]] for s in self.spans],
            }, fh, separators=(",", ":"))
