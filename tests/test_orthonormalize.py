import numpy as np
import pytest

import spandist as sd
from spandist import Field

from conftest import random_rows


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_orthonormal_rows_are_orthonormal(field):
    rng = np.random.default_rng(21)
    rows = random_rows(rng, 4, 7, field)
    q = sd.orthonormal_rows(rows)
    g = q @ q.conj().T
    assert np.max(np.abs(g - np.eye(4))) < 1e-12


def test_orthonormal_rows_preserve_span():
    rng = np.random.default_rng(22)
    rows = random_rows(rng, 3, 6, Field.REAL)
    q = sd.orthonormal_rows(rows)
    # each original row must be reproduced by its expansion in the new basis
    for v in rows:
        recon = (q.conj() @ v) @ q
        assert np.max(np.abs(recon - v)) < 1e-10 * np.max(np.abs(v))


def test_orthonormal_rows_reject_dependent_input():
    rows = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(sd.LinearDependenceError):
        sd.orthonormal_rows(rows)


def test_residual_after_projection_is_orthogonal():
    rng = np.random.default_rng(23)
    rows = random_rows(rng, 3, 6, Field.COMPLEX)
    q = sd.orthonormal_rows(rows)
    v = random_rows(rng, 1, 6, Field.COMPLEX)[0]
    r = sd.residual_after_projection(q, v)
    assert np.max(np.abs(q.conj() @ r)) < 1e-12 * np.linalg.norm(v)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_more_rows_than_dimensions_are_dependent(field):
    rows = random_rows(np.random.default_rng(24), 3, 2, field)
    x = random_rows(np.random.default_rng(25), 1, 2, field)[0]
    for call in (
        lambda: sd.orthonormal_rows(rows),
        lambda: sd.residual_after_projection(rows, x),
        lambda: sd.distance_sq_by_orthonormalization(rows, x),
    ):
        with pytest.raises(sd.LinearDependenceError, match="vector 2 is numerically in the span"):
            call()
