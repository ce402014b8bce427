"""One BLAS thread per process: factor bits do not depend on the core count.

Importing :mod:`repro.core.linalg` pins NumPy's and SciPy's OpenBLAS to one
thread.  Without the pin, LAPACK's blocking follows the thread count and a
replica on a 2-core box factors the same synopsis to different bits than
one on a 1-core box.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.core import linalg

SRC = Path(__file__).resolve().parents[2] / "src"

# Prepare -> infer -> extend -> infer -> extend -> infer over one seeded
# synopsis large enough for LAPACK to block (n = 700 -> 750 -> 800), each
# extension recording the cells just inferred, the second one in place in
# the first one's buffer; then hash every factor and answer.
SCRIPT = """
import hashlib
import numpy as np
from repro.config import VerdictConfig
from repro.core.covariance import AggregateModel
from repro.core.inference import GaussianInference
from repro.workloads.synthetic import make_gp_snippets

snippets, domains, key = make_gp_snippets(num_snippets=900, true_length_scale=1.5, seed=11)
inference = GaussianInference(VerdictConfig())
model = AggregateModel(key=key, length_scales={"x": 1.5})
prepared = inference.prepare(key, snippets[:700], model, domains)
inference.infer_batch(prepared, snippets[700:750])
extended = inference.extend(prepared, snippets[700:750])
inference.infer_batch(extended, snippets[750:800])
grown = inference.extend(extended, snippets[750:800])
assert grown.cho.buffer is extended.cho.buffer
results = inference.infer_batch(grown, snippets[800:])
digest = hashlib.sha256()
for array in (
    prepared.cho[0], prepared.alpha, extended.cho[0], extended.alpha,
    grown.cho[0], grown.alpha, grown.inverse_diagonal,
    np.array([(r.model_answer, r.model_error) for r in results]),
):
    digest.update(np.ascontiguousarray(array).tobytes())
print(digest.hexdigest())
"""


def _hash_with_threads(threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return completed.stdout.strip()


def test_blas_is_pinned_to_one_thread_at_import():
    # 0 only where no OpenBLAS is mapped (another BLAS vendor).
    assert linalg.blas_threads() in (0, 1)


def test_factor_bits_do_not_depend_on_the_blas_thread_count():
    one, two = _hash_with_threads(1), _hash_with_threads(2)
    assert len(one) == 64
    assert one == two
