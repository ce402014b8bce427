"""Unit tests for the shared dense linear algebra primitives."""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from repro.core import linalg
from repro.errors import InferenceError


def random_spd(size: int, seed: int = 0, noise: float = 1e-3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(size, size))
    return basis @ basis.T + noise * size * np.eye(size)


class TestJitter:
    def test_jitter_value_scales_with_mean_diagonal(self):
        diagonal = np.array([100.0, 300.0])
        assert linalg.jitter_value(diagonal, 1e-6) == pytest.approx(2e-4)

    def test_jitter_value_floor_at_one(self):
        diagonal = np.array([1e-12, 1e-12])
        assert linalg.jitter_value(diagonal, 1e-6) == pytest.approx(1e-6)

    def test_add_jitter_in_place_and_returns_amount(self):
        matrix = np.eye(3) * 2.0
        amount = linalg.add_jitter(matrix, 0.5)
        assert amount == pytest.approx(0.5 * 2.0)
        np.testing.assert_allclose(np.diag(matrix), 3.0)

    def test_zero_jitter_is_noop(self):
        matrix = np.eye(2)
        assert linalg.add_jitter(matrix, 0.0) == 0.0
        np.testing.assert_allclose(matrix, np.eye(2))


class TestRobustCholesky:
    def test_matches_scipy_on_spd_matrix(self):
        matrix = random_spd(6, seed=1)
        cho, added = linalg.robust_cholesky(matrix)
        assert added == 0.0
        reference = cho_factor(matrix, lower=True)
        rhs = np.arange(6, dtype=np.float64)
        np.testing.assert_allclose(
            linalg.solve_factored(cho, rhs), cho_solve(reference, rhs), rtol=1e-12
        )

    def test_input_not_mutated(self):
        matrix = random_spd(4, seed=2)
        copy = matrix.copy()
        linalg.robust_cholesky(matrix, jitter=1e-6)
        np.testing.assert_array_equal(matrix, copy)

    def test_escalates_jitter_on_near_singular(self):
        # Rank-deficient: needs escalated jitter to factorise.
        vector = np.ones((5, 1))
        matrix = vector @ vector.T
        cho, added = linalg.robust_cholesky(matrix, jitter=1e-12)
        assert added > 0.0
        assert np.all(np.isfinite(cho[0]))

    def test_raises_on_hopeless_matrix(self):
        matrix = -np.eye(3) * 1e6
        with pytest.raises(InferenceError):
            linalg.robust_cholesky(matrix, jitter=1e-12, max_attempts=2)

    def test_blocked_solve_matches_column_solves(self):
        matrix = random_spd(8, seed=3)
        cho, _ = linalg.robust_cholesky(matrix)
        rng = np.random.default_rng(4)
        block = rng.normal(size=(8, 5))
        blocked = linalg.solve_factored(cho, block)
        for column in range(5):
            np.testing.assert_allclose(
                blocked[:, column],
                linalg.solve_factored(cho, block[:, column]),
                rtol=1e-10,
            )


class TestExtendCholesky:
    @pytest.mark.parametrize("n,k", [(5, 1), (8, 3), (2, 4)])
    def test_extension_matches_from_scratch_factorisation(self, n, k):
        full = random_spd(n + k, seed=n * 10 + k)
        base = full[:n, :n]
        cross = full[:n, n:]
        corner = full[n:, n:]
        cho_base, _ = linalg.robust_cholesky(base)
        extended, _schur = linalg.extend_cholesky(cho_base, cross, corner)
        scratch = cho_factor(full, lower=True)
        np.testing.assert_allclose(
            linalg.lower_triangle(extended),
            np.tril(scratch[0]),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_extension_solves_match(self):
        full = random_spd(9, seed=11)
        cho_base, _ = linalg.robust_cholesky(full[:6, :6])
        extended, _ = linalg.extend_cholesky(cho_base, full[:6, 6:], full[6:, 6:])
        rhs = np.linspace(-1, 1, 9)
        direct = np.linalg.solve(full, rhs)
        np.testing.assert_allclose(linalg.solve_factored(extended, rhs), direct, rtol=1e-8)

    def test_vector_cross_accepted(self):
        full = random_spd(4, seed=12)
        cho_base, _ = linalg.robust_cholesky(full[:3, :3])
        extended, _ = linalg.extend_cholesky(
            cho_base, full[:3, 3], full[3:, 3:]
        )
        assert extended[0].shape == (4, 4)

    def test_raises_when_schur_not_positive_definite(self):
        base = np.eye(2)
        cho_base, _ = linalg.robust_cholesky(base)
        cross = np.array([[10.0], [0.0]])
        corner = np.array([[1.0]])  # 1 - 100 < 0
        with pytest.raises(np.linalg.LinAlgError):
            linalg.extend_cholesky(cho_base, cross, corner)

    def test_extend_inverse_diagonal_matches_direct_inverse(self):
        full = random_spd(10, seed=13)
        n = 7
        cho_base, _ = linalg.robust_cholesky(full[:n, :n])
        inverse_diag = np.diag(np.linalg.inv(full[:n, :n]))
        _, schur = linalg.extend_cholesky(cho_base, full[:n, n:], full[n:, n:])
        updated = linalg.extend_inverse_diagonal(
            cho_base, inverse_diag, full[:n, n:], schur
        )
        np.testing.assert_allclose(updated, np.diag(np.linalg.inv(full)), rtol=1e-8)


def grown_chain(sizes, seed):
    """``(full, factors)``: one SPD matrix and its factor grown through
    ``sizes`` -- a ``robust_cholesky`` base, then one extension per step."""
    full = random_spd(sizes[-1], seed=seed)
    factor, _ = linalg.robust_cholesky(full[: sizes[0], : sizes[0]])
    factors = [factor]
    for old, new in zip(sizes, sizes[1:]):
        factor, _ = linalg.extend_cholesky(
            factor, full[:old, old:new], full[old:new, old:new], clean=len(factors) > 1
        )
        factors.append(factor)
    return full, factors


class TestFactorBuffer:
    """An extended factor is the leading block of a buffer; the newest one
    grows in place and every solve on it keeps SciPy's exact-size bits."""

    def test_the_newest_factor_grows_in_place(self):
        _, (base, first, second, third) = grown_chain([60, 70, 75, 90], seed=61)
        assert not isinstance(base, linalg.BufferedFactor)
        assert first.buffer is second.buffer is third.buffer
        assert third.buffer.used == 90 and len(third.buffer.array) == 140
        assert third[0].base is third.buffer.array

    def test_a_full_buffer_moves_to_one_twice_the_size(self):
        _, (_, first, second) = grown_chain([10, 12, 30], seed=62)
        assert len(first.buffer.array) == 24
        assert second.buffer is not first.buffer
        assert len(second.buffer.array) == 60 and second.buffer.used == 30
        np.testing.assert_array_equal(second[0][:12, :12], first[0])

    @pytest.mark.parametrize("columns", [1, 2, 9])
    @pytest.mark.parametrize("trans", [0, 1])
    def test_triangular_solves_equal_scipy_on_an_exact_size_copy(self, columns, trans):
        _, (*_, grown) = grown_chain([150, 170, 179, 201], seed=63 + columns)
        exact = np.asfortranarray(np.tril(grown[0]))
        rhs = np.random.default_rng(columns).normal(size=(201, columns))
        for block in (rhs, rhs[:, 0]) if columns == 1 else (rhs,):
            assert (
                linalg._solve_triangular(grown, block, trans).tobytes()
                == solve_triangular(exact, block, lower=True, trans=trans, check_finite=False)
                .tobytes()
            )
        if trans == 0:
            assert linalg.solve_lower(grown, rhs).tobytes() == linalg.solve_lower(
                (exact, True), rhs
            ).tobytes()

    @pytest.mark.parametrize("columns", [1, 2, 9])
    def test_cho_solve_bits_including_one_column(self, columns):
        _, (*_, grown) = grown_chain([150, 170, 179, 201], seed=73 + columns)
        exact = np.asfortranarray(np.tril(grown[0]))
        rhs = np.random.default_rng(columns).normal(size=(201, columns))
        blocks = (rhs, rhs[:, 0].copy()) if columns == 1 else (rhs,)
        for block in blocks:
            solved = linalg.solve_factored(grown, block)
            assert solved.shape == block.shape
            assert (
                solved.tobytes()
                == cho_solve((exact, True), block, check_finite=False).tobytes()
            )

    def test_extending_an_older_factor_leaves_every_tenant_alone(self):
        _, (_, first, second) = grown_chain([90, 100, 110], seed=81)
        buffer = second.buffer
        assert first.buffer is buffer
        first_bytes, second_bytes = first[0].tobytes(), second[0].tobytes()
        # Other snippets after the first 100: same leading block, new rows.
        basis = np.random.default_rng(81).normal(size=(110, 110))
        basis[100:] = np.random.default_rng(82).normal(size=(10, 110))
        other = basis @ basis.T + 1e-3 * 110 * np.eye(110)
        # ``first`` is no longer the buffer's newest factor (a rewind).
        rewound, _ = linalg.extend_cholesky(
            first, other[:100, 100:], other[100:, 100:], clean=True
        )
        assert rewound.buffer is not buffer and buffer.used == 110
        assert first[0].tobytes() == first_bytes
        assert second[0].tobytes() == second_bytes
        np.testing.assert_array_equal(rewound[0][:100, :100], first[0])

    def test_a_restored_exact_size_factor_extends_to_the_same_bytes(self):
        full, (_, first, second) = grown_chain([150, 170, 190], seed=91)
        restored = (np.asfortranarray(np.array(first[0])), True)
        replayed, _ = linalg.extend_cholesky(
            restored, full[:170, 170:], full[170:, 170:], clean=True
        )
        assert replayed.buffer is not second.buffer
        assert replayed[0].tobytes() == second[0].tobytes()

    def test_a_failed_extension_claims_no_rows(self):
        _, (_, first) = grown_chain([4, 5], seed=92)
        cross = np.full((5, 1), 100.0)
        with pytest.raises(np.linalg.LinAlgError):
            linalg.extend_cholesky(first, cross, np.eye(1), clean=True)
        assert first.buffer.used == 5


class TestHelpers:
    def test_symmetrize(self):
        matrix = np.array([[1.0, 2.0], [2.5, 3.0]])
        result = linalg.symmetrize(matrix)
        np.testing.assert_allclose(result, result.T)
        np.testing.assert_allclose(result[0, 1], 2.25)

    def test_log_determinant(self):
        matrix = random_spd(4, seed=31)
        cho, _ = linalg.robust_cholesky(matrix)
        _sign, expected = np.linalg.slogdet(matrix)
        assert linalg.log_determinant(cho) == pytest.approx(expected, rel=1e-10)


class TestSolveLower:
    def test_half_solve_gives_the_quadratic_form(self):
        matrix = random_spd(9, seed=41)
        cho, _ = linalg.robust_cholesky(matrix)
        rhs = np.random.default_rng(42).normal(size=(9, 4))
        half = linalg.solve_lower(cho, rhs)
        np.testing.assert_allclose(half, np.linalg.solve(np.linalg.cholesky(matrix), rhs))
        np.testing.assert_allclose(
            np.einsum("ij,ij->j", half, half),
            np.einsum("ij,ij->j", rhs, np.linalg.solve(matrix, rhs)),
            rtol=1e-10,
        )

    def test_reads_only_the_lower_triangle(self):
        matrix = random_spd(6, seed=43)
        (factor, lower), _ = linalg.robust_cholesky(matrix)
        clean = np.asfortranarray(np.tril(factor))
        junk = clean.copy(order="F")
        junk[np.triu_indices(6, 1)] = np.nan
        rhs = np.arange(6.0)
        assert np.array_equal(
            linalg.solve_lower((junk, lower), rhs), linalg.solve_lower((clean, lower), rhs)
        )


class TestFiniteChecks:
    """The solves skip SciPy's scan of the factor; a NaN operand still raises."""

    def setup_method(self):
        self.cho, _ = linalg.robust_cholesky(random_spd(5, seed=51))
        self.rhs = np.ones((5, 2))
        self.rhs[3, 1] = np.nan

    def test_solve_factored_rejects_nan_rhs(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            linalg.solve_factored(self.cho, self.rhs)

    def test_solve_lower_rejects_nan_rhs(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            linalg.solve_lower(self.cho, self.rhs)

    def test_extend_rejects_nan_cross_and_corner(self):
        with pytest.raises(ValueError, match="infs or NaNs"):
            linalg.extend_cholesky(self.cho, self.rhs, np.eye(2))
        corner = np.eye(2)
        corner[0, 0] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            linalg.extend_cholesky(self.cho, np.ones((5, 2)), corner)

    def test_prepare_rejects_a_nan_answer(self):
        from repro.config import VerdictConfig
        from repro.core.covariance import AggregateModel
        from repro.core.inference import GaussianInference
        from repro.core.snippet import Snippet
        from repro.workloads.synthetic import make_gp_snippets

        snippets, domains, key = make_gp_snippets(num_snippets=8, true_length_scale=1.0, seed=3)
        snippets[4] = Snippet(
            key=key, region=snippets[4].region, raw_answer=float("nan"), raw_error=0.2
        )
        with pytest.raises(ValueError, match="infs or NaNs"):
            GaussianInference(VerdictConfig()).prepare(
                key, snippets, AggregateModel(key=key), domains
            )
