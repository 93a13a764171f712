"""Finite measure spaces: counting bounds, frames, table reconstruction."""

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from povmint import cli, finite, operators
from povmint.cli import main

import oracles

SIGMA = [np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex)]


def bloch(a):
    """Qubit density with Bloch vector a."""
    rho = 0.5 * np.eye(2, dtype=complex)
    for ak, s in zip(a, SIGMA):
        rho = rho + 0.5 * ak * s
    return rho


def octahedron_family():
    """Six rank-one projectors along +-x, +-y, +-z with weights 1/3 each:
    the largest rank-one qubit family, N = 6."""
    rhos = [bloch(sign * np.eye(3)[axis]) for axis in range(3)
            for sign in (1.0, -1.0)]
    return rhos, finite.FiniteMeasure(np.full(6, 1.0 / 3.0))


def mercedes_family():
    """Three rank-one projectors at 60 degrees with weights 2/3 each."""
    angles = [0.0, math.pi / 3, 2 * math.pi / 3]
    vecs = np.array([[math.cos(a), math.sin(a)] for a in angles])
    rhos = [np.outer(v, v).astype(complex) for v in vecs]
    return vecs, rhos, finite.FiniteMeasure(np.full(3, 2.0 / 3.0))


class TestMeasureAndTable:
    def test_measure_guards(self):
        with pytest.raises(ValueError):
            finite.FiniteMeasure(np.array([1.0, -0.2]))
        with pytest.raises(ValueError):
            finite.FiniteMeasure(np.eye(2))

    def test_table_validate_catches_row_sums(self):
        m = finite.FiniteMeasure(np.array([1.0, 1.0]))
        bad = finite.ProbTable(np.full((2, 2), 0.9), m, 2)
        with pytest.raises(ValueError, match="row sums"):
            bad.validate()

    def test_table_validate_catches_asymmetry(self):
        m = finite.FiniteMeasure(np.array([1.0, 1.0]))
        p = np.array([[0.6, 0.4], [0.5, 0.5]])
        with pytest.raises(ValueError, match="symmetric"):
            finite.ProbTable(p, m, 2).validate()

    def test_table_validate_catches_wrong_shape(self):
        m = finite.FiniteMeasure(np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="table must be 2x2, got \\(3, 3\\)"):
            finite.ProbTable(np.eye(3) / 3.0, m, 2).validate()

    def test_json_round_trip(self):
        _, rhos, measure = mercedes_family()
        table = finite.gram_probabilities(rhos, measure)
        back = finite.ProbTable.from_json(table.to_json())
        assert_allclose(back.p, table.p, atol=1e-15)
        assert_allclose(back.measure.weights, measure.weights, atol=1e-15)
        assert back.n == table.n


class TestFeasibility:
    def test_full_rank_bounds(self):
        rep = finite.feasibility_bounds(3)
        assert (rep.n_min, rep.n_max) == (1, 16)  # 2 n^2 - 2

    def test_rank_one_bounds_qubit(self):
        # discriminant 8n^2-4n+1 = 25 at n=2: quadratic roots {1, 6}
        rep = finite.feasibility_bounds(2, rank_one=True)
        assert rep.n_min == 2  # frame bound N >= n beats the lower root
        assert_allclose(rep.n_max, 6.0, atol=1e-12)

    def test_degenerate_dimension_one(self):
        rep = finite.feasibility_bounds(1)
        assert "degenerate" in rep.notes

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            finite.feasibility_bounds(0)

    @pytest.mark.xfail(strict=True, reason="published rank-one discriminant "
                       "8n^2-8n+9 happens to agree at n=2 but not beyond; "
                       "see the decisions ledger")
    def test_published_discriminant_variant(self):
        rep = finite.feasibility_bounds(3, rank_one=True)
        printed_hi = 0.5 * (11 + math.sqrt(8 * 9 - 8 * 3 + 9))
        assert_allclose(rep.n_max, printed_hi, atol=1e-12)

    def test_parameter_count(self):
        assert oracles.count_free_parameters(2, 4) == 9
        assert oracles.count_free_parameters(2, 4, rank_one=True) == 5


class TestFrames:
    def test_mercedes_parseval(self):
        vecs, _, measure = mercedes_family()
        assert finite.parseval_check(vecs, measure.weights) < 1e-14

    def test_parseval_rejects_non_unit(self):
        with pytest.raises(ValueError):
            finite.parseval_check(np.array([[2.0, 0.0]]), np.array([1.0]))

    def test_gram_probabilities(self):
        _, rhos, measure = mercedes_family()
        table = finite.gram_probabilities(rhos, measure)
        # p_ij = cos^2 of the angle between the frame vectors
        assert_allclose(table.p[0, 1], 0.25, atol=1e-14)
        assert_allclose(np.diag(table.p), 1.0, atol=1e-14)

    def test_gram_gate_on_non_resolving_family(self):
        _, rhos, _ = mercedes_family()
        bad = finite.FiniteMeasure(np.full(3, 0.5))
        with pytest.raises(ValueError, match="resolve"):
            finite.gram_probabilities(rhos, bad)


class TestReconstruct:
    def test_round_trip_full_rank_three_points(self):
        rhos = [bloch(a) for a in [(0.6, 0.0, 0.0), (-0.3, 0.4, 0.0),
                                   (-0.3, -0.4, 0.0)]]
        measure = finite.FiniteMeasure(np.full(3, 2.0 / 3.0))
        table = finite.gram_probabilities(rhos, measure)
        out = finite.reconstruct(table, seed=3)
        assert out.converged
        assert out.residual < 1e-6
        assert out.resolution < 1e-5
        got = finite.gram_probabilities(
            out.rhos, measure, tol=1e-4).p
        assert_allclose(got, table.p, atol=1e-5)

    def test_round_trip_full_rank_four_points_trf(self):
        rhos = [bloch(a) for a in [(0.4, 0.0, 0.0), (-0.4, 0.0, 0.0),
                                   (0.0, 0.5, 0.0), (0.0, -0.5, 0.0)]]
        measure = finite.FiniteMeasure(np.full(4, 0.5))
        table = finite.gram_probabilities(rhos, measure)
        out = finite.reconstruct(table, seed=1)
        assert out.converged
        assert out.residual < 1e-6

    def test_round_trip_rank_one(self):
        _, rhos, measure = mercedes_family()
        table = finite.gram_probabilities(rhos, measure)
        out = finite.reconstruct(table, rank_one=True, seed=0)
        assert out.converged
        assert out.residual < 1e-6
        for rho in out.rhos:
            vals = np.linalg.eigvalsh(rho)
            assert vals[-1] > 1.0 - 1e-5  # genuinely rank one

    def test_two_points_forced_commuting(self):
        # N = n = 2: the resolution constraint makes rho_2 = I - rho_1,
        # so any solution pair commutes
        rho1 = bloch((0.0, 0.0, 0.4))
        rhos = [rho1, np.eye(2) - rho1]
        measure = finite.FiniteMeasure(np.array([1.0, 1.0]))
        table = finite.gram_probabilities(rhos, measure)
        out = finite.reconstruct(table, seed=0)
        assert out.converged
        a, b = out.rhos
        assert np.max(np.abs(a @ b - b @ a)) < 1e-8

    def test_non_density_result_is_not_converged(self, monkeypatch):
        # the density check is part of the result, not an assert that
        # python -O would strip
        rho1 = bloch((0.0, 0.0, 0.4))
        measure = finite.FiniteMeasure(np.array([1.0, 1.0]))
        table = finite.gram_probabilities([rho1, np.eye(2) - rho1], measure)
        monkeypatch.setattr(finite, "is_density",
                            lambda *a, **k: SimpleNamespace(ok=False))
        out = finite.reconstruct(table, seed=0)
        assert out.residual < 1e-8
        assert out.converged is False

    def test_round_trip_rank_one_six_points_lm(self):
        # 25 residuals for 24 variables: an over-determined solve
        rhos, measure = octahedron_family()
        table = finite.gram_probabilities(rhos, measure)
        out = finite.reconstruct(table, rank_one=True, seed=0)
        assert out.converged
        assert out.residual < 1e-8

    @pytest.mark.parametrize("restarts", [0, -2])
    def test_restarts_below_one_rejected(self, restarts):
        _, rhos, measure = mercedes_family()
        table = finite.gram_probabilities(rhos, measure)
        with pytest.raises(ValueError, match="restarts"):
            finite.reconstruct(table, restarts=restarts)

    def test_verify_finite_passes_for_fifty_seeds(self, capsys):
        # other tests solve at a few fixed seeds; fifty pin the convergence rate
        for seed in range(50):
            assert main(["verify", "finite", "--seed", str(seed)]) == 0, seed
        capsys.readouterr()

    def test_infeasible_count_rejected(self):
        m = finite.FiniteMeasure(np.full(7, 2.0 / 7.0))
        p = np.full((7, 7), 0.5)
        table = finite.ProbTable(p, m, 2)
        with pytest.raises(ValueError, match="infeasible"):
            finite.reconstruct(table)


def haar_unitary(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rank_one_family(size):
    """Rank-one qubit families resolving the identity with nu_i = 2/N: the
    +-z pair, the Mercedes star, the tetrahedron and the octahedron."""
    if size == 3:
        _, rhos, measure = mercedes_family()
        return rhos, measure
    if size == 6:
        return octahedron_family()
    axes = ([(0, 0, 1), (0, 0, -1)] if size == 2 else
            np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]) / math.sqrt(3))
    return [bloch(a) for a in axes], finite.FiniteMeasure(np.full(size, 2.0 / size))


def noisy_table(seed):
    """A full-rank N = 6 qubit table moved by 1e-3 along Q E Q (Q projects out
    nu, E symmetric): row sums and symmetry hold, and the Gram rank is 5, so
    no qubit family has this table.  (At N = 4 the nu-complement is only
    3-dimensional, so such a move keeps the table exact.)"""
    rng = np.random.default_rng(seed)
    rhos, measure = cli._random_resolving_family(rng, 2, 6)
    table = finite.gram_probabilities(rhos, measure)
    nu = measure.weights
    q = np.eye(6) - np.outer(nu, nu) / (nu @ nu)
    e = rng.standard_normal((6, 6))
    return finite.ProbTable(table.p + 1e-3 * q @ (e + e.T) @ q, measure, 2)


def result_sha256(out):
    h = hashlib.sha256(np.asarray(out.rhos).tobytes())
    h.update(np.array([out.residual, out.resolution, out.restarts_used]).tobytes())
    return h.hexdigest()


class TestClosedForm:
    """Qubit tables by classical multidimensional scaling (DECISIONS.md entry 20)."""

    @staticmethod
    def counted_solver(monkeypatch):
        calls = []
        solve = finite.least_squares

        def wrapper(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(finite, "least_squares", wrapper)
        return calls

    @pytest.mark.parametrize("rank_one", [False, True])
    @pytest.mark.parametrize("size", [2, 3, 4, 6])
    def test_reproduces_qubit_tables(self, monkeypatch, size, rank_one):
        calls = self.counted_solver(monkeypatch)
        for seed in range(5):
            rng = np.random.default_rng([seed, size])
            if rank_one:
                u = haar_unitary(rng)
                rhos, measure = rank_one_family(size)
                rhos = [u @ r @ u.conj().T for r in rhos]
            else:
                rhos, measure = cli._random_resolving_family(rng, 2, size)
            table = finite.gram_probabilities(rhos, measure)
            out = finite.reconstruct(table, rank_one=rank_one, seed=seed)
            assert out.converged and out.restarts_used == 0
            got = np.array(out.rhos)
            assert np.max(np.abs(finite._gram(got) - table.p)) <= 1e-13
            assert out.resolution <= 1e-13
            for rho in got:
                assert operators.is_density(rho).ok
                if rank_one:
                    assert abs(operators.purity(rho) - 1.0) <= 1e-13
        assert not calls

    @pytest.mark.parametrize("size", [2, 3, 4, 6])
    def test_invariant_under_unitary_and_transpose(self, size):
        # both maps leave the table unchanged, and the closed form reads only the table
        for seed in range(5):
            rng = np.random.default_rng([seed, size])
            rhos, measure = cli._random_resolving_family(rng, 2, size)
            u = haar_unitary(rng)
            want = np.array(finite.reconstruct(finite.gram_probabilities(rhos, measure)).rhos)
            for moved in ([u @ r @ u.conj().T for r in rhos], [r.T for r in rhos]):
                got = finite.reconstruct(finite.gram_probabilities(moved, measure))
                assert got.restarts_used == 0
                assert np.max(np.abs(np.array(got.rhos) - want)) <= 1e-12

    def test_inexact_tables_reach_least_squares(self, monkeypatch):
        calls = self.counted_solver(monkeypatch)
        out = finite.reconstruct(noisy_table(0), restarts=1)
        assert len(calls) == 1 and out.restarts_used == 1
        assert out.residual > 1e-4
        # a full-rank table has |r_i| < 1, so no rank-one closed form
        rhos, measure = cli._random_resolving_family(np.random.default_rng(0), 2, 4)
        out = finite.reconstruct(finite.gram_probabilities(rhos, measure),
                                 rank_one=True, restarts=1)
        assert len(calls) == 2 and out.restarts_used == 1
        assert not out.converged

    # sha256 of the densities, residual, resolution and restarts: Levenberg-
    # Marquardt results, pinned from the solver before the closed form existed
    SOLVER_PINS = {
        "n3-seed0": "40205d49f997f8130da73f0ea2cab83c977721848560e041948332851e43e212",
        "n3-seed1": "0fd305828ac22e5d51dfdca44e63775ab8700d3a45f4c57d7603a3ccc0d0a10a",
        "noisy-seed0": "21998224977098bbae74c0a5e0dd15468d3b617af9f3b71fe728dc123c7abf83",
    }

    @pytest.mark.parametrize("case", sorted(SOLVER_PINS))
    def test_solver_results_bit_identical(self, case):
        kind, seed = case.split("-seed")
        seed = int(seed)
        if kind == "n3":
            rhos, measure = cli._random_resolving_family(np.random.default_rng(seed), 3, 5)
            table = finite.gram_probabilities(rhos, measure)
        else:
            table = noisy_table(seed)
        out = finite.reconstruct(table, seed=seed, restarts=2)
        assert result_sha256(out) == self.SOLVER_PINS[case]

    def test_verify_finite_never_calls_least_squares(self, capsys, monkeypatch):
        calls = self.counted_solver(monkeypatch)
        for seed in range(50):
            assert main(["verify", "finite", "--seed", str(seed)]) == 0, seed
        capsys.readouterr()
        assert not calls


class TestLeastSquares:
    """The Levenberg-Marquardt solver behind reconstruct."""

    @staticmethod
    def problem(rank_one=False):
        # a random full-rank qubit family (N = 4), or the octahedron (N = 6)
        rng = np.random.default_rng(3)
        rhos, measure = (octahedron_family() if rank_one
                         else cli._random_resolving_family(rng, 2, 4))
        table = finite.gram_probabilities(rhos, measure)
        k = 1 if rank_one else 2
        residuals, jacobian = finite._objective(table.p, measure.weights,
                                                2, k, 10.0)
        return residuals, jacobian, rng.standard_normal(len(rhos) * 4 * k)

    @staticmethod
    def counted(fn, calls):
        def wrapper(x):
            calls.append(1)
            return fn(x)
        return wrapper

    @pytest.mark.parametrize("max_nfev", [1, 2, 5])
    def test_max_nfev_caps_nfev(self, max_nfev):
        residuals, jacobian, x0 = self.problem()
        calls = []
        sol = finite.least_squares(self.counted(residuals, calls), x0,
                                   jac=jacobian, max_nfev=max_nfev)
        assert sol.nfev == len(calls) == max_nfev

    @pytest.mark.parametrize("rank_one", [False, True])
    def test_counts_jacobian_evaluations(self, rank_one):
        residuals, jacobian, x0 = self.problem(rank_one)
        fun_calls, jac_calls = [], []
        sol = finite.least_squares(self.counted(residuals, fun_calls), x0,
                                   jac=self.counted(jacobian, jac_calls))
        assert sol.njev == len(jac_calls) >= 1
        assert sol.nfev == len(fun_calls) >= sol.njev
        assert np.sum(residuals(sol.x) ** 2) < 1e-20

    def test_gauge_degenerate_start(self):
        # a zero second column in every factor B_i leaves the Jacobian with
        # zero columns, so J^T J is singular with a zero diagonal entry
        residuals, jacobian, x0 = self.problem()
        x0 = x0.reshape(4, 2, 2, 2)
        x0[..., 1] = 0.0
        x0 = x0.ravel()
        jac = jacobian(x0)
        assert np.any(np.all(jac == 0.0, axis=0))
        assert np.linalg.matrix_rank(jac.T @ jac) < len(x0)
        sol = finite.least_squares(residuals, x0, jac=jacobian)
        assert np.all(np.isfinite(sol.x))
        assert np.sum(residuals(sol.x) ** 2) <= np.sum(residuals(x0) ** 2)


def loop_params_to_rhos(x, size, n, k):
    """The per-point unpacking the solver used before it was batched."""
    per = 2 * n * k
    rhos = []
    for i in range(size):
        chunk = x[i * per:(i + 1) * per]
        b = (chunk[:n * k] + 1.0j * chunk[n * k:]).reshape(n, k)
        m = b @ b.conj().T
        rhos.append(m / np.trace(m).real)
    return rhos


def loop_gram(rhos):
    size = len(rhos)
    return np.array([[np.trace(rhos[i] @ rhos[j]).real for j in range(size)]
                     for i in range(size)])


def loop_residuals(x, target, nu, n, k, penalty):
    rhos = loop_params_to_rhos(x, len(nu), n, k)
    total = sum(w * r for w, r in zip(nu, rhos)) - np.eye(n)
    return np.concatenate([
        (loop_gram(rhos) - target)[np.triu_indices(len(nu))],
        penalty * total.real[np.triu_indices(n)],
        penalty * total.imag[np.triu_indices(n, k=1)],
    ])


class TestObjective:
    """The batched residual and the closed-form Jacobian of reconstruct."""

    # (n, N, rank one); the last case has more residuals than variables
    CASES = [(2, 4, False), (2, 3, True), (3, 5, False), (2, 2, False),
             (2, 6, True)]

    @staticmethod
    def problem(n, size, rank_one):
        k = 1 if rank_one else n
        rng = np.random.default_rng([n, size, k])
        target = rng.uniform(0.0, 1.0, (size, size))
        target = 0.5 * (target + target.T)
        nu = np.full(size, n / size)
        x = rng.standard_normal(size * 2 * n * k)
        return x, target, nu, k

    @pytest.mark.parametrize("n,size,rank_one", CASES)
    def test_jacobian_matches_central_differences(self, n, size, rank_one):
        x, target, nu, k = self.problem(n, size, rank_one)
        residuals, jacobian = finite._objective(target, nu, n, k, 10.0)
        # step 1e-6: rounding (~1e-16 |r| / h, |r| ~ penalty = 10) and
        # truncation (~h^2) errors stay near 1e-9, so 1e-7 absolute
        h = 1e-6
        fd = np.array([(residuals(x + h * e) - residuals(x - h * e)) / (2 * h)
                       for e in np.eye(len(x))]).T
        jac = jacobian(x)
        assert jac.shape == (len(residuals(x)), len(x))
        assert_allclose(jac, fd, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("n,size,rank_one", CASES)
    def test_batched_residual_and_gram_match_loops(self, n, size, rank_one):
        x, target, nu, k = self.problem(n, size, rank_one)
        rho, s, _ = finite._params_to_rhos(x, size, n, k)
        rhos = loop_params_to_rhos(x, size, n, k)
        assert_allclose(rho, np.array(rhos), rtol=0, atol=1e-14)
        assert_allclose(s, np.sum(x.reshape(size, -1) ** 2, axis=1),
                        rtol=1e-14)
        assert_allclose(finite._gram(rho), loop_gram(rhos), rtol=0, atol=1e-14)
        residuals, _ = finite._objective(target, nu, n, k, 10.0)
        assert_allclose(residuals(x), loop_residuals(x, target, nu, n, k, 10.0),
                        rtol=0, atol=1e-14)
