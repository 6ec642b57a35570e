"""Differential test of the ``C`` a plan serves, against scipy in float64.

Every backend x reordering (identity, jaccard, rcm, jaccard with column
permutation) x ``B`` (a vector, ``N`` = 1, ``N`` = 33) x a float32 and an
int32 ``A``, on generated matrices with empty rows and columns.  The
served product must lie within the float32 tolerance of scipy's float64
``A @ B`` (relative to ``max |A @ B|``) and have the dtype
``np.result_type(A.dtype, B.dtype, np.float32)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import SMaTConfig
from repro.core.plan import ExecutionPlan
from repro.formats import CSRMatrix

BACKENDS = ("smat", "cusparse", "dasp", "magicube", "cublas")
#: name -> (reorder, reorder_columns)
REORDERS = {
    "identity": ("identity", False),
    "jaccard": ("jaccard", False),
    "rcm": ("rcm", False),
    "jaccard+columns": ("jaccard", True),
}
#: a vector ``B`` (None) and N in {1, 33}
WIDTHS = (None, 1, 33)
A_DTYPES = (np.float32, np.int32)
#: float32 tolerance relative to max |A @ B| (the perfbench output check)
RTOL = 1e-4

matrices = st.tuples(
    st.integers(min_value=1, max_value=70),  # rows
    st.integers(min_value=1, max_value=70),  # cols
    st.floats(min_value=0.0, max_value=0.3),  # density
    st.integers(min_value=0, max_value=2**31 - 1),  # seed
)


def _matrix(rows, cols, density, seed, dtype) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    values = rng.integers(-9, 10, size=(rows, cols)) * (rng.random((rows, cols)) < density)
    values[rng.random(rows) < 0.2, :] = 0  # empty rows
    values[:, rng.random(cols) < 0.2] = 0  # empty columns
    return CSRMatrix.from_dense(values.astype(dtype))


@pytest.mark.parametrize("reorder", list(REORDERS))
@pytest.mark.parametrize("backend", BACKENDS)
@given(params=matrices)
@settings(max_examples=6, deadline=None, derandomize=True)
def test_served_product_matches_scipy(backend, reorder, params):
    name, columns = REORDERS[reorder]
    config = SMaTConfig(kernel=backend, reorder=name, reorder_columns=columns)
    for a_dtype in A_DTYPES:
        A = _matrix(*params, a_dtype)
        plan = ExecutionPlan.build(A, config)
        exact = A.to_scipy().astype(np.float64)
        rng = np.random.default_rng(params[3])
        for N in WIDTHS:
            shape = (A.ncols,) if N is None else (A.ncols, N)
            B = rng.normal(size=shape).astype(np.float32)
            reference = exact @ B.astype(np.float64)
            C, _ = plan.execute(B)
            assert C.shape == reference.shape
            assert C.dtype == np.result_type(A.dtype, B.dtype, np.float32)
            scale = max(1.0, float(np.max(np.abs(reference), initial=0.0)))
            err = float(np.max(np.abs(C - reference), initial=0.0))
            assert err <= RTOL * scale, (backend, reorder, a_dtype, N, err)
