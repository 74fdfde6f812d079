"""Character groups, L-functions, explicit formula, Katz averages."""

import math

import numpy as np
import pytest

from fqx.errors import (
    BudgetExceeded,
    NotEvenPrimitive,
    PreconditionError,
    RootFindingDidNotConverge,
    TrivialCharacter,
    UnsupportedModulusShape,
)
from fqx.field import make_field
from fqx.polyring import Poly, is_irreducible, poly_from_string
from fqx import dirichlet, rmt
from fqx.dirichlet import (
    ROOT_TOL,
    DirichletCharacter,
    build_unit_group,
    char_eval,
    explicit_formula_check,
    frobenius_angles_even_primitive,
    generating_identity_error,
    katz_average,
    l_polynomial,
    list_characters,
    m_sum,
    trivial_character,
    weighted_character_sums,
)


def _poly(q, s):
    return poly_from_string(make_field(q), s)


class TestGroupConstruction:
    def test_x_squared_mod_3(self):
        G = build_unit_group(Poly.monomial(make_field(3), 2))
        assert G.phi == 6
        assert sorted(G.orders) == [2, 3]

    def test_prime_modulus_x(self):
        for q in (3, 5, 7):
            G = build_unit_group(Poly.monomial(make_field(q), 1))
            assert G.phi == q - 1
            assert G.orders == (q - 1,)

    def test_irreducible_quadratic_is_cyclic(self):
        Q = _poly(3, "2,2,1")
        assert is_irreducible(Q)
        G = build_unit_group(Q)
        assert G.orders == (8,)

    def test_squarefree_product(self):
        Q = _poly(3, "0,1") * _poly(3, "1,1") * _poly(3, "2,1")
        G = build_unit_group(Q)
        assert G.shape == "squarefree"
        assert G.phi == 8
        assert G.orders == (2, 2, 2)

    def test_phi_equals_unit_count(self):
        # the dlog table marks exactly the coprime residues
        for q, s in ((3, "0,0,0,1"), (5, "0,1"), (3, "2,2,1")):
            Q = _poly(q, s)
            G = build_unit_group(Q)
            assert int((G.pos >= 0).sum()) == G.phi

    def test_rejects_non_squarefree_mixed(self):
        Q = _poly(3, "0,1") ** 2 * _poly(3, "1,1")
        with pytest.raises(UnsupportedModulusShape):
            build_unit_group(Q)

    def test_duplicated_generator_rejected(self):
        # a repeated basis element enumerates each unit twice: the collision
        # check must catch it even though the enumeration has phi entries
        G = build_unit_group(Poly.monomial(make_field(5), 4))
        gens, orders = list(G.generators), list(G.orders)
        with pytest.raises(UnsupportedModulusShape):
            dirichlet.DirichletGroup(G.Q, G.shape, gens + gens[-1:],
                                     orders + orders[-1:], G.scalar_root)
        same = dirichlet.DirichletGroup(G.Q, G.shape, gens, orders, G.scalar_root)
        assert np.array_equal(same.pos, G.pos)

    @pytest.mark.parametrize("q,s", [(5, "0,0,0,0,1"), (3, "0,2,0,1"), (7, "3,0,1,1")])
    def test_sparse_step_matches_dense_mulmod(self, q, s):
        # rows times one fixed polynomial, against the dense block_mulmod,
        # for x^m and squarefree moduli and factors of every sparsity
        from fqx import batch

        Q = _poly(q, s)
        m, q_low = Q.degree, np.array(Q.coeffs[:Q.degree], dtype=np.int64)
        rng = np.random.default_rng(q)
        rows = rng.integers(0, q, size=(200, m))
        for g in ([2], [1, 0, 1], [0, 0, 1], list(rng.integers(0, q, size=m)), [0] * m):
            gc = np.zeros(m, dtype=np.int64)
            gc[: len(g)] = g
            want = batch.block_mulmod(rows, np.broadcast_to(gc, rows.shape), q_low, q)
            got = dirichlet._mul_fixed(np.ascontiguousarray(rows.T), g, q_low, q)
            assert np.array_equal(got.T, want)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            build_unit_group(Poly.monomial(make_field(101), 6), budget=10**6)

    def test_constant_modulus_rejected(self):
        with pytest.raises(PreconditionError):
            build_unit_group(Poly.one(make_field(3)))


class TestCharacters:
    def test_counts_mod_x2_q3(self):
        G = build_unit_group(Poly.monomial(make_field(3), 2))
        assert len(list(list_characters(G))) == 6
        assert len(list(list_characters(G, "even"))) == 3

    def test_trivial_even_imprimitive(self):
        G = build_unit_group(Poly.monomial(make_field(5), 3))
        chi0 = trivial_character(G)
        assert chi0.is_trivial and chi0.is_even and not chi0.is_primitive

    def test_even_primitive_counts(self):
        for q in (3, 5, 7):
            for N in (1, 2, 3):
                G = build_unit_group(Poly.monomial(make_field(q), N + 2))
                got = sum(1 for _ in list_characters(G, "even_primitive"))
                assert got == q ** (N + 1) - q**N

    def test_even_iff_trivial_on_scalars(self):
        q = 5
        G = build_unit_group(Poly.monomial(make_field(q), 3))
        ctx = G.ctx
        for chi in list_characters(G):
            on_scalars = all(
                abs(char_eval(chi, Poly.constant(ctx, c)) - 1) < 1e-12
                for c in range(1, q)
            )
            assert on_scalars == chi.is_even

    def test_orthogonality_exhaustive_x3_q3(self):
        G = build_unit_group(Poly.monomial(make_field(3), 3))
        chars = list(list_characters(G))
        assert len(chars) == G.phi == 18
        for idx in range(27):
            s = 0j
            for chi in chars:
                t = chi.phase_int(idx)
                if t is not None:
                    s += complex(G.exp_table[t])
            want = G.phi if idx == 1 else 0.0
            assert abs(s - want) < 1e-10

    def test_char_eval_multiplicative(self):
        q = 5
        ctx = make_field(q)
        G = build_unit_group(Poly.monomial(ctx, 3))
        chi = next(c for c in list_characters(G) if not c.is_trivial)
        f = _poly(q, "1,2,0,0,1")
        g = _poly(q, "3,1")
        lhs = char_eval(chi, f * g)
        rhs = char_eval(chi, f) * char_eval(chi, g)
        assert abs(lhs - rhs) < 1e-12

    def test_char_eval_zero_off_units(self):
        ctx = make_field(5)
        G = build_unit_group(Poly.monomial(ctx, 3))
        chi = next(iter(list_characters(G)))
        assert char_eval(chi, Poly.x(ctx) * _poly(5, "1,1")) == 0

    def test_squarefree_primitive_means_all_factors_active(self):
        Q = _poly(3, "0,1") * _poly(3, "1,1") * _poly(3, "2,1")
        G = build_unit_group(Q)
        prim = [c.exps for c in list_characters(G, "primitive")]
        assert prim == [(1, 1, 1)]


class TestLPolynomials:
    def test_trivial_character_rejected(self):
        G = build_unit_group(Poly.monomial(make_field(3), 2))
        with pytest.raises(TrivialCharacter):
            l_polynomial(trivial_character(G))

    def test_even_nontrivial_mod_x2_is_one_minus_u(self):
        for q in (3, 7):
            G = build_unit_group(Poly.monomial(make_field(q), 2))
            for chi in list_characters(G, "even"):
                if chi.is_trivial:
                    continue
                lp = l_polynomial(chi)
                assert lp.degree == 1
                assert abs(lp.coeffs[0] - 1) < 1e-12
                assert abs(lp.coeffs[1] + 1) < 1e-12

    def test_even_primitive_mod_x4_q5_two_angles(self):
        G = build_unit_group(Poly.monomial(make_field(5), 4))
        for chi in list(list_characters(G, "even_primitive"))[:10]:
            lp = l_polynomial(chi)
            assert lp.angles.shape == (2,)
            inner = np.sort(np.abs(lp.inverse_roots))[1:]  # drop trivial root 1
            assert np.abs(inner - math.sqrt(5)).max() < 1e-6

    def test_rh_and_trivial_zero_all_nontrivial_x4_q3(self):
        q = 3
        G = build_unit_group(Poly.monomial(make_field(q), 4))
        for chi in list_characters(G):
            if chi.is_trivial:
                continue
            lp = l_polynomial(chi)
            assert lp.degree <= 3
            if chi.is_even:
                assert abs(lp.value(1.0)) < 1e-6
            if chi.is_primitive:
                mods = np.abs(lp.inverse_roots)
                mods = mods[np.abs(mods - 1.0) > 1e-6] if chi.is_even else mods
                assert np.abs(mods - math.sqrt(q)).max() < 1e-6

    def test_naive_vs_dft_mod_x4_q5(self):
        G = build_unit_group(Poly.monomial(make_field(5), 4))
        worst = 0.0
        for chi in list_characters(G):
            if chi.is_trivial:
                continue
            a = l_polynomial(chi, mode="naive").coeffs
            b = l_polynomial(chi, mode="dft").coeffs
            n = max(len(a), len(b))
            a = np.pad(a, (0, n - len(a)))
            b = np.pad(b, (0, n - len(b)))
            worst = max(worst, float(np.abs(a - b).max()))
        assert worst < 1e-9

    def test_imprimitive_angles_none(self):
        G = build_unit_group(Poly.monomial(make_field(3), 3))
        chi = next(c for c in list_characters(G)
                   if not c.is_trivial and not c.is_primitive)
        assert l_polynomial(chi).angles is None


def _l_table(q, m, mode):
    G = build_unit_group(Poly.monomial(make_field(q), m))
    return {chi.exps: l_polynomial(chi, mode=mode)
            for chi in list_characters(G) if not chi.is_trivial}


class TestLTable:
    @pytest.mark.parametrize("q,m", [(5, 4), (3, 5)])
    @pytest.mark.parametrize("mode", ["naive", "dft"])
    def test_block_boundaries(self, monkeypatch, q, m, mode):
        # blocks of 1 and of 7 characters (7 divides neither phi) give the
        # same table as one block for the whole group
        default = _l_table(q, m, mode)
        for cells in (40, 7 * q ** (m - 1)):
            monkeypatch.setattr(dirichlet, "_LTABLE_CELLS", cells)
            small = _l_table(q, m, mode)
            assert small.keys() == default.keys()
            for exps, lp in small.items():
                ref = default[exps]
                assert np.array_equal(lp.coeffs, ref.coeffs)
                assert np.array_equal(lp.inverse_roots, ref.inverse_roots)
                assert (lp.angles is None) == (ref.angles is None)
                if lp.angles is not None:
                    assert np.array_equal(lp.angles, ref.angles)

    def test_one_call_fills_one_block(self, monkeypatch):
        fills = []
        fill = dirichlet._l_block

        def counted(group, mode, start, stop):
            fills.append((start, stop))
            return fill(group, mode, start, stop)

        monkeypatch.setattr(dirichlet, "_l_block", counted)
        G = build_unit_group(Poly.monomial(make_field(13), 4))
        size = max(1, dirichlet._LTABLE_CELLS // 13**3)
        assert size < G.phi
        chi = DirichletCharacter(G, (5, 3, 7, 2))
        flat = int(np.ravel_multi_index(chi.exps, G.orders))
        l_polynomial(chi)
        [(start, stop)] = fills
        assert stop - start == size and start <= flat < stop
        neighbour = np.unravel_index(start if flat != start else stop - 1, G.orders)
        l_polynomial(DirichletCharacter(G, tuple(int(c) for c in neighbour)))
        assert len(fills) == 1
        l_polynomial(chi, mode="dft")
        assert len(fills) == 2

    def test_returned_arrays_read_only(self):
        G = build_unit_group(Poly.monomial(make_field(5), 4))
        chi = next(c for c in list_characters(G, "even_primitive"))
        lp = l_polynomial(chi)
        for arr in (lp.coeffs, lp.inverse_roots, lp.angles):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_batched_check_covers_every_row(self, monkeypatch):
        find = rmt._poly_roots

        def perturbed(rows):
            z = np.array(find(rows))
            assert z.shape[0] >= 3  # a many-row batch
            z[z.shape[0] // 2, 0] += 1e-3
            return z

        monkeypatch.setattr(rmt, "_poly_roots", perturbed)
        G = build_unit_group(Poly.monomial(make_field(5), 4))
        chi = next(c for c in list_characters(G, "even_primitive"))
        with pytest.raises(RootFindingDidNotConverge):
            l_polynomial(chi)
        with pytest.raises(RootFindingDidNotConverge):
            frobenius_angles_even_primitive(G)

    def test_degree_zero_rows_skip_root_finding(self, monkeypatch):
        find = rmt._poly_roots
        widths = []

        def recorded(rows):
            widths.append(rows.shape[1])
            return find(rows)

        monkeypatch.setattr(rmt, "_poly_roots", recorded)
        # mod x every L is 1; mod x^3 the characters of conductor x have L = 1
        for m in (1, 3):
            G = build_unit_group(Poly.monomial(make_field(5), m))
            ones = 0
            for chi in list_characters(G):
                if chi.is_trivial:
                    continue
                lp = l_polynomial(chi)
                if lp.degree == 0:
                    ones += 1
                    assert lp.inverse_roots.shape == (0,)
                    assert lp.inverse_roots.dtype == complex
                    assert lp.angles is None or lp.angles.shape == (0,)
            assert ones == 3
        assert widths and min(widths) >= 2

    def test_repeated_roots_pass_backward_check(self, monkeypatch):
        # (z - sqrt5)^2 (z + sqrt5): every route gets the double root only
        # to about 1e-8, but the rebuilt coefficients are within ROOT_TOL
        s5 = math.sqrt(5.0)
        row = np.array([[1.0, -s5, -5.0, 5 * s5]], dtype=complex)
        roots = dirichlet._inverse_roots(row)[0]
        assert np.abs(np.sort_complex(roots) - [-s5, s5, s5]).max() < 1e-6
        find = rmt._poly_roots

        def perturbed(rows):
            z = np.array(find(rows))
            z[0, 0] += 1e-3
            return z

        monkeypatch.setattr(rmt, "_poly_roots", perturbed)
        with pytest.raises(RootFindingDidNotConverge):
            dirichlet._inverse_roots(row)

    def test_roots_match_companion_eigenvalues(self):
        # the root finder against LAPACK on the companion matrices, over
        # every even primitive character mod x^5, q = 7: to 1e-12 where a
        # row's roots are 1e-4 apart, to ROOT_TOL at (near) repeated roots
        G = build_unit_group(Poly.monomial(make_field(7), 5))
        rows = np.array([l_polynomial(c).coeffs for c in list_characters(G, "even_primitive")])
        got = dirichlet._inverse_roots(rows)
        D = rows.shape[1] - 1
        comp = np.zeros((rows.shape[0], D, D), dtype=complex)
        comp[:, 0, :] = -rows[:, 1:] / rows[:, :1]
        comp[:, np.arange(1, D), np.arange(D - 1)] = 1.0
        want = np.linalg.eigvals(comp)
        d = np.abs(got[:, :, None] - want[:, None, :])
        dist = np.maximum(d.min(axis=2).max(axis=1), d.min(axis=1).max(axis=1))
        gaps = np.abs(want[:, :, None] - want[:, None, :]) + np.eye(D) * 1e9
        simple = gaps.min(axis=(1, 2)) >= 1e-4
        assert simple.sum() > rows.shape[0] // 2
        assert dist[simple].max() < 1e-12
        assert dist.max() <= ROOT_TOL

    def test_naive_table_against_scalar_reference(self):
        from fqx.ensembles import enumerate_monic

        q, m = 7, 4
        ctx = make_field(q)
        G = build_unit_group(Poly.monomial(ctx, m))
        chars = [c for c in list_characters(G) if not c.is_trivial]
        monic = [list(enumerate_monic(ctx, n)) for n in range(m)]
        rng = np.random.default_rng(2015)
        for i in rng.choice(len(chars), size=12, replace=False):
            chi = chars[i]
            lp = l_polynomial(chi, mode="naive")
            want = np.array([sum(char_eval(chi, f) for f in monic[n]) for n in range(m)])
            assert np.abs(lp.coeffs - want[: lp.degree + 1]).max() < 1e-9
            assert np.abs(want[lp.degree + 1 :]).max(initial=0.0) < 1e-9
            ref = np.roots(lp.coeffs)
            assert lp.inverse_roots.shape == ref.shape
            if ref.size:
                d = np.abs(ref[:, None] - lp.inverse_roots[None, :])
                assert max(d.min(axis=0).max(), d.min(axis=1).max()) <= ROOT_TOL


class TestMSums:
    def test_unit_weight_matches_coefficients(self):
        G = build_unit_group(Poly.monomial(make_field(5), 4))
        chi = next(c for c in list_characters(G, "even_primitive"))
        lp = l_polynomial(chi)
        for n in range(4):
            cn = lp.coeffs[n] if n < len(lp.coeffs) else 0.0
            assert abs(m_sum(n, chi) - cn) < 1e-9

    def test_mobius_cancellation_even_primitive(self):
        q = 5
        G = build_unit_group(Poly.monomial(make_field(q), 4))
        chi = next(c for c in list_characters(G, "even_primitive"))
        for n in range(1, 6):
            assert abs(m_sum(n, chi, weight="mobius")) <= (n + 1) * q ** (n / 2) + 1e-9

    def test_trivialish_sums_against_scalar(self):
        # spot-check the weighted sum against a direct scalar loop
        from fqx.ensembles import enumerate_monic
        from fqx.polyring import mobius, von_mangoldt, divisor_k

        q = 3
        ctx = make_field(q)
        G = build_unit_group(Poly.monomial(ctx, 3))
        chi = next(c for c in list_characters(G) if not c.is_trivial)
        for weight, fn in (
            ("mobius", mobius),
            ("von_mangoldt", von_mangoldt),
            ("divisor_k", lambda f: divisor_k(f, 2)),
        ):
            for n in (1, 2, 4):
                direct = sum(fn(f) * char_eval(chi, f)
                             for f in enumerate_monic(ctx, n))
                assert abs(m_sum(n, chi, weight=weight) - direct) < 1e-9

    def test_sieve_weights_even_q_and_degree_zero(self):
        # the weights over M_n come from the sieve for every q, n = 0 included
        from fqx.ensembles import enumerate_monic
        from fqx.polyring import mobius, von_mangoldt, divisor_k

        ctx = make_field(2)
        G = build_unit_group(Poly.monomial(ctx, 3))
        chi = next(c for c in list_characters(G) if not c.is_trivial)
        for weight, fn in (
            ("mobius", mobius),
            ("von_mangoldt", von_mangoldt),
            ("divisor_k", lambda f: divisor_k(f, 3)),
        ):
            for n in (0, 1, 3, 5):
                direct = sum(fn(f) * char_eval(chi, f)
                             for f in enumerate_monic(ctx, n))
                assert abs(m_sum(n, chi, weight=weight, k=3) - direct) < 1e-9

    def test_budget(self):
        G = build_unit_group(Poly.monomial(make_field(5), 3))
        chi = next(iter(list_characters(G)))
        with pytest.raises(BudgetExceeded):
            m_sum(12, chi, budget=10**6)

    def test_budget_checked_before_any_binning(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("work started before the budget check")

        for name in ("_character_fft", "_monic_residue_indices", "_weights_over_monic"):
            monkeypatch.setattr(dirichlet, name, never)
        G = build_unit_group(Poly.monomial(make_field(5), 3))
        chi = next(iter(list_characters(G)))
        with pytest.raises(BudgetExceeded):
            m_sum(12, chi, weight="mobius", budget=10**6)
        with pytest.raises(BudgetExceeded):
            weighted_character_sums(G, 12, budget=10**6)
        assert G._sums == {}

    def test_bulk_matches_single(self):
        # the lattice against the scalar sum of char_eval over M_3
        from fqx.ensembles import enumerate_monic
        from fqx.polyring import mobius

        ctx = make_field(5)
        G = build_unit_group(Poly.monomial(ctx, 4))
        monic = list(enumerate_monic(ctx, 3))
        for weight, fn in (("unit", lambda f: 1), ("mobius", mobius)):
            W = weighted_character_sums(G, 3, weight=weight)
            for chi in list(list_characters(G))[::37]:
                direct = sum(fn(f) * char_eval(chi, f) for f in monic)
                assert abs(W[chi.exps] - direct) < 1e-9
                assert abs(m_sum(3, chi, weight=weight) - direct) < 1e-9

    def test_one_transform_per_key(self, monkeypatch):
        # every character of a group reads one cached, read-only lattice per
        # (n, weight, k); a new group starts empty
        calls = []
        fft = dirichlet._character_fft

        def counted(group, n, wt):
            calls.append(n)
            return fft(group, n, wt)

        monkeypatch.setattr(dirichlet, "_character_fft", counted)
        G = build_unit_group(Poly.monomial(make_field(3), 3))
        keys = [(n, w, k) for n in (0, 2, 4) for w, k in
                (("unit", 2), ("mobius", 2), ("divisor_k", 2), ("divisor_k", 3))]
        for _ in range(2):
            for chi in list_characters(G):
                for n, w, k in keys:
                    m_sum(n, chi, weight=w, k=k)
        assert len(calls) == len(keys)
        W = weighted_character_sums(G, 2, weight="mobius")
        assert len(calls) == len(keys) and not W.flags.writeable
        H = build_unit_group(Poly.monomial(make_field(3), 3))
        m_sum(2, next(iter(list_characters(H))), weight="mobius")
        assert len(calls) == len(keys) + 1

    @pytest.mark.parametrize("q,s", [(2, "0,1"), (3, "0,2,0,1"), (3, "0,1,0,1")])
    def test_trivial_and_squarefree_groups_against_scalar(self, q, s):
        # x over F_2 has the trivial group only (no basis at all); x^3 - x
        # and x^3 + x over F_3 are squarefree, with a quadratic factor in
        # the second
        from fqx.ensembles import enumerate_monic
        from fqx.polyring import mobius, von_mangoldt, divisor_k

        ctx = make_field(q)
        G = build_unit_group(_poly(q, s))
        for weight, fn in (("unit", lambda f: 1), ("mobius", mobius),
                           ("von_mangoldt", von_mangoldt),
                           ("divisor_k", lambda f: divisor_k(f, 3))):
            for n in range(5):
                monic = list(enumerate_monic(ctx, n))
                for chi in list_characters(G):
                    direct = sum(fn(f) * char_eval(chi, f) for f in monic)
                    assert abs(m_sum(n, chi, weight=weight, k=3) - direct) < 1e-9


class TestExplicitFormula:
    def test_requires_even_primitive(self):
        G = build_unit_group(Poly.monomial(make_field(5), 4))
        odd = next(c for c in list_characters(G, "primitive") if not c.is_even)
        with pytest.raises(NotEvenPrimitive):
            explicit_formula_check(2, odd)

    def test_n_zero_both_one(self):
        G = build_unit_group(Poly.monomial(make_field(5), 4))
        chi = next(c for c in list_characters(G, "even_primitive"))
        lhs, rhs, err = explicit_formula_check(0, chi)
        assert lhs == 1 and rhs == 1 and err == 0

    def test_matches_through_degree_five(self):
        G = build_unit_group(Poly.monomial(make_field(5), 5))
        for chi in list(list_characters(G, "even_primitive"))[:3]:
            for n in range(6):
                _, _, err = explicit_formula_check(n, chi)
                assert err < 1e-8 * max(1.0, 5 ** (n / 2))

    def test_generating_identity_all_kinds(self):
        G = build_unit_group(Poly.monomial(make_field(3), 4))
        kinds = {"even_prim": None, "odd_prim": None, "imprim": None}
        for chi in list_characters(G):
            if chi.is_trivial:
                continue
            if chi.is_even and chi.is_primitive and kinds["even_prim"] is None:
                kinds["even_prim"] = chi
            elif not chi.is_even and chi.is_primitive and kinds["odd_prim"] is None:
                kinds["odd_prim"] = chi
            elif not chi.is_primitive and kinds["imprim"] is None:
                kinds["imprim"] = chi
        for name, chi in kinds.items():
            assert chi is not None, name
            assert generating_identity_error(chi) < 1e-8


class TestKatz:
    def test_precondition(self):
        with pytest.raises(PreconditionError):
            katz_average(1, 3, rmt.PowerTraceSquared(1))

    def test_constant_statistic_exact(self):
        emp, ref = katz_average(2, 3, lambda row: 1.0, samples=1000)
        assert emp == 1.0 and ref == 1.0

    def test_trace_squared_near_one(self):
        emp, ref = katz_average(3, 11, rmt.PowerTraceSquared(1), samples=20000)
        assert abs(emp - 1.0) < 0.35
        assert abs(ref - 1.0) < 0.1

    def test_second_power_trace(self):
        emp, _ = katz_average(3, 11, rmt.PowerTraceSquared(2), samples=1000)
        assert abs(emp - 2.0) < 0.35

    def test_angles_in_half_open_circle(self):
        # a root at angle -1e-17 has the eigenphase 0, not 2 pi; a removed
        # trivial zero (NaN) still sorts last
        p = 11
        roots = math.sqrt(p) * np.exp(np.array([[-1e-17j, 0.5j, np.nan]]))
        ang = dirichlet._unitary_angles(roots, p)
        assert ang[0, 0] == 0.0 and ang[0, 1] == 0.5 and np.isnan(ang[0, 2])
        ang = frobenius_angles_even_primitive(build_unit_group(Poly.monomial(make_field(p), 5)))
        assert ((ang >= 0) & (ang < 2 * np.pi)).all()
        assert (ang[:, 0] == 0.0).any()


class TestDeterminism:
    def test_group_build_reproducible(self):
        Q = _poly(7, "3,1") * _poly(7, "1,0,1")
        G1 = build_unit_group(Q, seed=0)
        G2 = build_unit_group(Q, seed=0)
        assert np.array_equal(G1.pos, G2.pos)
        assert G1.orders == G2.orders

    def test_seed_changes_generators_not_group(self):
        Q = _poly(7, "3,1") * _poly(7, "1,0,1")
        G1 = build_unit_group(Q, seed=0)
        G2 = build_unit_group(Q, seed=1)
        assert G1.phi == G2.phi
        assert np.array_equal(G1.pos >= 0, G2.pos >= 0)
