"""Reference figures, measured once and recorded in bench/README.md; not
part of the benchmark runs.

    python3 bench/reference.py        # about five minutes

1. Rows per second of each kernel stage on the fixed shard of the roadmap:
   q = 37, n = 5, monic indices [10_000_000, 10_400_000).  Each stage runs
   on the rows that reach it inside batch_is_irreducible (the rootless rows
   for the Frobenius stages) and is timed as the fastest of three calls.
2. Wall time of the full C09 case, exp_var_psi(37, 5, 0), run once.

Run from the root of a checkout, like run.py.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

from run import host_info, load_fqx

Q, N, START, STOP = 37, 5, 10_000_000, 10_400_000


def best_of(f, repeat=3):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = f()
        times.append(time.perf_counter() - t0)
    return min(times), out


def shard_stages(fqx):
    b = fqx.batch
    ctx = fqx.make_field(Q)
    p = ctx.p
    t, blk = best_of(lambda: b.monic_block(ctx, N, START, STOP))
    rows = {"monic_block": (blk.shape[0], t)}
    t, roots = best_of(lambda: b.count_roots(blk, p))
    rows["count_roots"] = (blk.shape[0], t)
    F = np.ascontiguousarray(blk[roots == 0])
    t, g1 = best_of(lambda: b.x_power_q_mod(F, p))
    rows["x_power_q_mod"] = (F.shape[0], t)
    t, g2 = best_of(lambda: b.compose_mod(g1, g1, F, p))
    rows["compose_mod"] = (F.shape[0], t)
    gx = g2.copy()
    gx[:, 1] = (gx[:, 1] - 1) % p
    t, M = best_of(lambda: b.mult_matrix(gx, F, p))
    rows["mult_matrix"] = (F.shape[0], t)
    t, _ = best_of(lambda: b.batch_det(M.copy(), p))
    rows["batch_det"] = (F.shape[0], t)

    def gcd_degrees():
        A = np.concatenate([F, np.ones((F.shape[0], 1), dtype=np.int64)], axis=1)
        B = np.concatenate([gx, np.zeros((F.shape[0], 1), dtype=np.int64)], axis=1)
        nz = B != 0
        dB = np.where(nz.any(axis=1), N - np.argmax(nz[:, ::-1], axis=1), -1)
        return b.batch_gcd_degree(A, np.full(F.shape[0], N), B, dB, p)

    t, _ = best_of(gcd_degrees)
    rows["batch_gcd_degree"] = (F.shape[0], t)
    t, irr = best_of(lambda: b.batch_is_irreducible(blk, ctx))
    rows["batch_is_irreducible"] = (blk.shape[0], t)
    q_low = np.array([1, 1, 0], dtype=np.int64)  # Q = x^3 + x + 1
    t, _ = best_of(lambda: b.reduce_mod(blk, q_low, p))
    rows["reduce_mod"] = (blk.shape[0], t)
    t, _ = best_of(lambda: b.batch_mobius(blk, ctx))
    rows["batch_mobius"] = (blk.shape[0], t)
    idx = np.arange(START, STOP, dtype=np.int64)
    w = irr.astype(np.float64) * N
    t, _ = best_of(lambda: np.bincount(idx // Q - START // Q, weights=w))
    rows["class_sum_binning"] = (blk.shape[0], t)
    sub = blk[:10_000]
    t, _ = best_of(lambda: b.batch_exponent_counts(sub, ctx), repeat=1)
    rows["batch_exponent_counts"] = (sub.shape[0], t)
    return {name: {"rows": r, "seconds": round(s, 4), "rows_per_s": round(r / s)}
            for name, (r, s) in rows.items()}


def main():
    fqx = load_fqx(Path.cwd())
    out = {"host": host_info(), "shard": f"q={Q} n={N} rows [{START}, {STOP})",
           "stages": shard_stages(fqx)}
    t0 = time.perf_counter()
    rep = fqx.exp_var_psi(37, 5, 0)
    out["c09"] = {"wall_s": round(time.perf_counter() - t0, 1),
                  "variance_over_H": rep.empirical["variance_over_H"],
                  "verdict": rep.verdict}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
