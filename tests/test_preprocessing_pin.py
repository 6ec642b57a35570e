"""Pinned preprocessing outputs of the nine Table-I stand-ins.

``preprocessing_pin.json`` was generated by this file's ``_pin`` before the
preprocessing passes became sort-based (``sort_unique``, the one-gather
``permute_rows``).  Every row permutation, block count, BCSR array and
SR-BCRS array must stay bit-identical to it: the permutation decides the
simulated numbers of every figure.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.formats import BCSRMatrix, SRBCRSMatrix
from repro.matrices import suitesparse
from repro.reorder import get_reorderer

PIN = Path(__file__).with_name("preprocessing_pin.json")
SCALE = 0.02
ALGORITHMS = ("jaccard", "saad", "rcm", "graycode")
SHAPES = ((16, 8), (8, 16))


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _pin() -> dict:
    out = {}
    for name in suitesparse.TABLE1_NAMES:
        A = suitesparse.load(name, scale=SCALE)
        for algo in ALGORITHMS:
            for shape in SHAPES:
                result = get_reorderer(algo, block_shape=shape).reorder(A)
                permuted = A.permute_rows(result.row_perm)
                bcsr = BCSRMatrix.from_csr(permuted, shape)
                srbcrs = SRBCRSMatrix.from_csr(permuted)
                out[f"{name}/{algo}/{shape[0]}x{shape[1]}"] = {
                    "row_perm": _digest(result.row_perm),
                    "blocks_before": result.stats_before.n_blocks,
                    "blocks_after": result.stats_after.n_blocks,
                    "bcsr": _digest(bcsr.brow_ptr, bcsr.bcol, bcsr.blocks),
                    "srbcrs": _digest(srbcrs.panel_ptr, srbcrs.vec_col, srbcrs.vectors),
                }
    return out


def test_preprocessing_matches_pin():
    got = _pin()
    expected = json.loads(PIN.read_text())
    assert sorted(got) == sorted(expected)
    mismatched = [key for key in expected if got[key] != expected[key]]
    assert mismatched == []
