"""Shared dense linear algebra for the inference hot path.

Verdict's query-time inference is a handful of dense operations on the
past-snippet covariance matrix: a Cholesky factorisation prepared offline
(Algorithm 1), blocked triangular solves at query time (Lemma 2), and -- new
in this reproduction -- *incremental* factor maintenance so that the factor
grows with the synopsis instead of being rebuilt from scratch after every
recorded query.  This module collects those primitives so that
:mod:`repro.core.inference`, :mod:`repro.core.covariance` and
:mod:`repro.core.learning` share one implementation of each:

* :func:`robust_cholesky` -- jittered factorisation with escalation, the
  single entry point for turning a covariance matrix into a factor;
* :func:`solve_factored` -- blocked forward/backward substitution; passing an
  ``(n, m)`` right-hand side solves all ``m`` systems in one BLAS call, which
  is what makes batched group-by inference one matrix solve instead of a
  Python loop of vector solves;
* :func:`solve_lower` -- the forward half alone, ``L^{-1} rhs``, which is all
  a quadratic form ``rhs^T A^{-1} rhs`` needs;
* :func:`extend_cholesky` / :func:`extend_inverse_diagonal` -- rank-k factor
  *extension* when k new snippets are appended to the synopsis: O(n^2 k)
  instead of the O(n^3) of a fresh factorisation.  A factor only ever grows
  this way or is rebuilt (evictions, appends to the data, training), so
  there are no rank-1 update / downdate rotations;
* :func:`symmetrize` -- numerical hygiene for matrices that are symmetric by
  construction but not bit-for-bit symmetric after float accumulation.

All factors use the ``(matrix, lower)`` convention of
:func:`scipy.linalg.cho_factor` so they interoperate with existing callers.

One thread per query: importing this module pins every OpenBLAS the process
has mapped (NumPy's and SciPy's) to one thread.  A second BLAS thread buys no
throughput on these O(n^2 k) calls -- concurrency comes from concurrent
queries -- but doubles their CPU, and LAPACK's blocking depends on the thread
count, so factors would differ in their last bits between a 1-core and a
2-core replica replaying the same commands.  :func:`blas_threads` reports the
pinned count (0 where no OpenBLAS was found).
"""

from __future__ import annotations

import ctypes
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from repro.errors import InferenceError

CholeskyFactor = tuple[np.ndarray, bool]

# ------------------------------------------------------------- BLAS threading

# (set, get) thread-count entry points of the OpenBLAS builds NumPy and SciPy
# wheels ship: NumPy's ILP64 ``libscipy_openblas64_`` and SciPy's LP64
# ``libscipy_openblas``.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


def _openblas_thread_controls() -> list[tuple[Callable[[int], None], Callable[[], int]]]:
    """``(set, get)`` of every OpenBLAS mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted(
                {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
            )
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for setter, getter in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(library, setter) and hasattr(library, getter):
                set_threads, get_threads = getattr(library, setter), getattr(library, getter)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                controls.append((set_threads, get_threads))
    return controls


_BLAS_THREAD_CONTROLS = _openblas_thread_controls()
for _set_threads, _get_threads in _BLAS_THREAD_CONTROLS:
    _set_threads(1)


def blas_threads() -> int:
    """Threads the process's OpenBLAS uses per call; 0 if none was found."""
    return max((get() for _, get in _BLAS_THREAD_CONTROLS), default=0)


def _require_finite(array: np.ndarray) -> np.ndarray:
    """``array`` as float64, raising like SciPy's ``check_finite`` would.

    The solves below skip SciPy's scan of the n x n factor -- a factor this
    module made from finite input -- so the O(n k) right-hand side is the
    one operand still checked: a NaN raises where it always did.
    """
    array = np.asarray(array, dtype=np.float64)
    if not np.isfinite(array).all():
        raise ValueError("array must not contain infs or NaNs")
    return array


# --------------------------------------------------------------------- jitter


def jitter_value(diagonal: np.ndarray, jitter: float) -> float:
    """Absolute diagonal jitter for a matrix with the given diagonal.

    The relative ``jitter`` is scaled by the mean diagonal entry (floored at
    one) so that matrices of very different magnitudes receive proportionate
    regularisation.

    Parameters
    ----------
    diagonal:
        The diagonal entries of the matrix about to be factorised.
    jitter:
        Relative jitter (for example ``VerdictConfig.jitter``).

    Returns
    -------
    The absolute amount to add to every diagonal entry (zero when ``jitter``
    is non-positive or the diagonal is empty).
    """
    if jitter <= 0.0 or len(diagonal) == 0:
        return 0.0
    return jitter * max(float(np.mean(diagonal)), 1.0)


def add_jitter(matrix: np.ndarray, jitter: float) -> float:
    """Add relative jitter to ``matrix``'s diagonal in place.

    Returns the absolute amount added (see :func:`jitter_value`), which
    callers store so that incremental extensions can apply the *same*
    absolute regularisation to appended diagonal blocks.
    """
    amount = jitter_value(np.diag(matrix), jitter)
    if amount > 0.0:
        matrix[np.diag_indices_from(matrix)] += amount
    return amount


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(M + M^T) / 2`` of a square matrix.

    Covariance matrices built from products of per-attribute factors are
    symmetric by construction, but floating-point accumulation order can
    leave the two triangles a few ulps apart; factorisations behave better on
    the exactly-symmetric representative.
    """
    return 0.5 * (matrix + matrix.T)


# --------------------------------------------------------------- factor/solve


def robust_cholesky(
    matrix: np.ndarray, jitter: float = 0.0, max_attempts: int = 3
) -> tuple[CholeskyFactor, float]:
    """Lower-Cholesky factorise ``matrix`` with escalating diagonal jitter.

    The input is copied (never mutated).  The relative ``jitter`` is applied
    first; if the factorisation still fails, the jitter is escalated by two
    orders of magnitude up to ``max_attempts`` times before giving up.

    Returns
    -------
    ``((factor, lower), added)`` where ``added`` is the total absolute jitter
    added to the diagonal.

    Raises
    ------
    InferenceError
        If the matrix is not positive definite even after escalation.
    """
    work = np.array(matrix, dtype=np.float64)
    added = add_jitter(work, jitter)
    scale = max(float(np.mean(np.diag(work))), 1.0) if work.size else 1.0
    bump = max(jitter, 1e-12)
    for _ in range(max(max_attempts, 1)):
        try:
            return cho_factor(work, lower=True), added
        except np.linalg.LinAlgError:
            bump *= 100.0
            extra = bump * scale
            work[np.diag_indices_from(work)] += extra
            added += extra
    raise InferenceError("covariance matrix is not positive definite")


def solve_factored(cho: CholeskyFactor, rhs: np.ndarray) -> np.ndarray:
    """Solve ``A x = rhs`` given a Cholesky factor of ``A``.

    ``rhs`` may be a vector or an ``(n, m)`` block; the block form performs
    all ``m`` solves in one pair of triangular BLAS calls, which is the
    primitive behind batched group-by inference.  Only ``rhs`` is checked
    for NaN / inf (see :func:`_require_finite`).
    """
    return cho_solve(cho, _require_finite(rhs), check_finite=False)


def solve_lower(cho: CholeskyFactor, rhs: np.ndarray) -> np.ndarray:
    """``L^{-1} rhs`` for the lower factor ``L`` of ``A = L L^T``.

    One triangular solve -- half of :func:`solve_factored` -- which is all a
    quadratic form needs: ``rhs^T A^{-1} rhs = ||L^{-1} rhs||^2``.  The solve
    reads the lower triangle only, so a ``cho_factor`` factor goes in as it
    is, junk upper triangle and all.
    """
    matrix, lower = cho
    return solve_triangular(
        matrix,
        _require_finite(rhs),
        lower=lower,
        trans="N" if lower else "T",
        check_finite=False,
    )


def lower_triangle(cho: CholeskyFactor) -> np.ndarray:
    """Extract the clean lower-triangular factor ``L`` (``A = L L^T``).

    :func:`scipy.linalg.cho_factor` leaves junk from the input matrix in the
    unused triangle; this returns a copy with that triangle zeroed, suitable
    for block composition.
    """
    matrix, lower = cho
    return np.tril(matrix) if lower else np.triu(matrix).T


# --------------------------------------------------------------- rank-k grow


def extend_cholesky(
    cho: CholeskyFactor, cross: np.ndarray, corner: np.ndarray, clean: bool = False
) -> tuple[CholeskyFactor, CholeskyFactor]:
    """Extend a factor of ``A`` to the factor of ``[[A, B], [B^T, C]]``.

    Given the lower factor ``L`` of the existing ``n x n`` block ``A``, the
    ``n x k`` cross block ``B`` and the ``k x k`` corner ``C``, the extended
    factor is::

        [[L,   0],
         [S^T, D]]   with  S = L^{-1} B,  D D^T = C - S^T S

    costing one triangular solve (O(n^2 k)) plus a k x k factorisation --
    the rank-k *update* that lets the synopsis grow without re-running the
    O(n^3) factorisation (Section 3's offline step stays offline).

    ``clean`` says the unused triangle of ``cho`` is already zero -- true of
    every factor this function returned -- which saves the O(n^2) copy that
    zeroes it.  The extended factor is Fortran-ordered like the ones LAPACK
    makes, so the triangular solves take it without copying it first.

    Returns
    -------
    ``(extended, schur)`` -- the ``(n+k, n+k)`` factor and the ``k x k``
    factor of the Schur complement (reused by
    :func:`extend_inverse_diagonal`).

    Raises
    ------
    numpy.linalg.LinAlgError
        If the Schur complement is not positive definite (callers fall back
        to a fresh factorisation).
    """
    lower = cho[0] if clean and cho[1] else lower_triangle(cho)
    n = lower.shape[0]
    cross = _require_finite(cross)
    corner = _require_finite(corner)
    if cross.ndim == 1:
        cross = cross.reshape(n, 1)
    k = corner.shape[0]
    solved = solve_triangular(lower, cross, lower=True, check_finite=False)
    schur = symmetrize(corner - solved.T @ solved)
    schur_lower = np.linalg.cholesky(schur)
    extended = np.zeros((n + k, n + k), dtype=np.float64, order="F")
    extended[:n, :n] = lower
    extended[n:, :n] = solved.T
    extended[n:, n:] = schur_lower
    return (extended, True), (schur_lower, True)


def extend_inverse_diagonal(
    cho: CholeskyFactor,
    inverse_diagonal: np.ndarray,
    cross: np.ndarray,
    schur: CholeskyFactor,
    half_solved: np.ndarray | None = None,
) -> np.ndarray:
    """Diagonal of ``[[A, B], [B^T, C]]^{-1}`` from ``diag(A^{-1})``.

    Uses the block-inverse identity: with ``W = A^{-1} B`` and Schur
    complement ``S = C - B^T A^{-1} B``,

    * the top diagonal becomes ``diag(A^{-1}) + diag(W S^{-1} W^T)``;
    * the bottom diagonal is ``diag(S^{-1})``.

    Costs O(n^2 k), so the leave-one-out calibration of
    :class:`repro.core.inference.PreparedInference` stays cheap under
    incremental growth (a fresh ``diag(K^{-1})`` would be O(n^3)).

    Parameters
    ----------
    cho:
        Factor of the *old* ``n x n`` block ``A``.
    inverse_diagonal:
        ``diag(A^{-1})`` maintained so far.
    cross:
        The ``n x k`` cross block ``B``.
    schur:
        Factor of the Schur complement, as returned by
        :func:`extend_cholesky`.
    half_solved:
        Optional ``S = L^{-1} B`` already computed by
        :func:`extend_cholesky` (the transposed bottom-left block of the
        extended factor); supplying it saves the forward substitution, since
        ``A^{-1} B = L^{-T} S``.
    """
    k = schur[0].shape[0]
    if half_solved is not None:
        # The solve reads one triangle only: a lower factor goes in as it is.
        lower = cho[0] if cho[1] else lower_triangle(cho)
        solved = solve_triangular(
            lower, half_solved, lower=True, trans="T", check_finite=False
        )
    else:
        solved = solve_factored(cho, cross if cross.ndim == 2 else cross.reshape(-1, 1))
    schur_inverse = solve_factored(schur, np.eye(k))
    top = inverse_diagonal + np.einsum("ij,jk,ik->i", solved, schur_inverse, solved)
    bottom = np.diag(schur_inverse).copy()
    return np.concatenate([top, bottom])


def log_determinant(cho: CholeskyFactor) -> float:
    """``log |A|`` from a Cholesky factor of ``A`` (used by the likelihood)."""
    return 2.0 * float(np.sum(np.log(np.diag(cho[0]))))
