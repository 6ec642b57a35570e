"""Wire codecs for arrays, matrices and reports.

Dense operands and results have two transport forms:

* **npy** (what :class:`~repro.serve.client.SpMMClient` uses for
  ``POST /multiply`` and ``POST /jobs``) -- the request or response body
  *is* one ``.npy`` file (``Content-Type: application/x-npy``), written
  and read with :mod:`numpy.lib.format` (:func:`encode_npy` /
  :func:`decode_npy`): no text encoding at all, so a warm multiply costs
  about what the engine does;
* **JSON** -- inside a JSON body, either **packed**
  ``{"dtype": ..., "shape": [...], "data_b64": ...}`` with the raw
  little-endian buffer base64-encoded (:func:`encode_array`), or **plain
  nested lists**, convenient for hand-written requests (``curl``).
  :func:`decode_array` accepts both; JSON responses use the packed form.

Both decoders apply the same checks -- numeric dtypes only, no negative
dimensions, a byte count that matches the shape -- and raise
:class:`~repro.serve.errors.BadRequest` on any failure, so malformed
input becomes a 400, never a 500.  CSR matrices travel as their three
packed arrays plus the shape (:func:`encode_csr`/:func:`decode_csr`), and
:func:`report_payload` flattens a :class:`~repro.core.plan.MultiplyReport`
into the JSON summary returned with every multiply.
"""

from __future__ import annotations

import base64
import io
import math
import threading
import tokenize
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.plan import MultiplyReport
from ..formats import CSRMatrix
from .errors import BadRequest

__all__ = [
    "NPY_CONTENT_TYPE",
    "INFO_HEADER",
    "encode_npy",
    "npy_parts",
    "decode_npy",
    "ReceiveBuffer",
    "encode_array",
    "decode_array",
    "encode_csr",
    "decode_csr",
    "report_payload",
]

#: media type of a body that is one ``.npy`` file
NPY_CONTENT_TYPE = "application/x-npy"

#: response header carrying, as JSON, the fields that accompany an npy
#: result (``cache_hit``, ``wall_ms``, ``report``, ...)
INFO_HEADER = "X-SpMM-Info"

#: dtypes accepted over the wire (no objects, no structured records)
_ALLOWED_KINDS = frozenset("fiu")

#: longest ``.npy`` header accepted; :mod:`numpy.lib.format` writes
#: about 120 characters for a 2-D array
_MAX_NPY_HEADER = 1024


def _array_from_buffer(
    raw, dtype: np.dtype, shape: Sequence[int], *, offset: int = 0, field: str
) -> np.ndarray:
    """Validate ``dtype``/``shape`` against ``raw[offset:]`` and return a
    writable native-order copy; every failure is a :class:`BadRequest`."""
    if dtype.kind not in _ALLOWED_KINDS:
        raise BadRequest(f"{field}: dtype {dtype.name!r} not allowed on the wire")
    if any(d < 0 for d in shape):
        raise BadRequest(f"{field}: negative dimension in shape {list(shape)}")
    expected = math.prod(shape) * dtype.itemsize
    if len(raw) - offset != expected:
        raise BadRequest(
            f"{field}: buffer holds {len(raw) - offset} bytes, shape {list(shape)} "
            f"with dtype {dtype.name} needs {expected}"
        )
    try:
        arr = np.frombuffer(raw, dtype=dtype, offset=offset).reshape(shape)
    except (ValueError, OverflowError) as exc:
        raise BadRequest(f"{field}: unsupported shape {list(shape)}: {exc}") from None
    # always copy: frombuffer views are read-only, and CSR construction
    # sorts row segments in place
    return arr.astype(dtype.newbyteorder("="), copy=True)


def npy_parts(arr: np.ndarray) -> Tuple[bytes, memoryview]:
    """The two parts of ``arr``'s C-order ``.npy`` file: the header bytes
    and a flat byte view of the data, which a writer sends one after the
    other without joining them (no copy of a C-contiguous ``arr``)."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype.kind not in _ALLOWED_KINDS:
        raise ValueError(f"cannot encode dtype {arr.dtype} over the wire")
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(arr))
    return header.getvalue(), memoryview(arr.reshape(-1).view(np.uint8))


def encode_npy(arr: np.ndarray) -> bytes:
    """Encode a numpy array as the bytes of one C-order ``.npy`` file."""
    return b"".join(npy_parts(arr))


class ReceiveBuffer:
    """A growable buffer that one connection reads every ``.npy`` body
    into, so that a warm exchange reuses its pages instead of allocating a
    payload-sized ``bytes`` object per body."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def read(self, stream, length: int) -> memoryview:
        """Read ``length`` bytes of ``stream`` (fewer if it ends first); the
        view is valid until the next :meth:`read`."""
        if len(self._buf) < length:
            self._buf = bytearray(length)
        view = memoryview(self._buf)[:length]
        got = 0
        while got < length:
            n = stream.readinto(view[got:])
            if not n:
                break
            got += n
        return view[:got]


#: numpy parses an npy header with ``ast.literal_eval``; concurrent parses
#: on CPython 3.11 can fail AST validation ("AST constructor recursion
#: depth mismatch"), so header parses run one at a time
_HEADER_LOCK = threading.Lock()


def decode_npy(raw, *, field: str = "array") -> np.ndarray:
    """Decode the bytes of one ``.npy`` file (any bytes-like object) into a
    new writable array.

    Accepts format versions 1.0 and 2.0 with a header of at most 1024
    characters, C order only, either byte order (the result is native).
    Raises :class:`~repro.serve.errors.BadRequest` on any malformed input.
    """
    # magic, version and length field take at most 12 bytes
    fp = io.BytesIO(raw[: 12 + _MAX_NPY_HEADER])
    try:
        version = np.lib.format.read_magic(fp)
        if version == (1, 0):
            read_header = np.lib.format.read_array_header_1_0
        elif version == (2, 0):
            read_header = np.lib.format.read_array_header_2_0
        else:
            raise BadRequest(f"{field}: unsupported npy format version {version}")
        with _HEADER_LOCK:
            header = read_header(fp, max_header_size=_MAX_NPY_HEADER)
    # numpy's header parser falls back to tokenize for headers written
    # by Python 2, so a garbled header can also raise TokenError
    except (ValueError, SyntaxError, TypeError, tokenize.TokenError) as exc:
        raise BadRequest(f"{field}: malformed npy data: {exc}") from None
    shape, fortran_order, dtype = header
    if fortran_order:
        raise BadRequest(f"{field}: Fortran-order npy data is not accepted; send C order")
    return _array_from_buffer(raw, dtype, shape, offset=fp.tell(), field=field)


def encode_array(arr: np.ndarray) -> Dict[str, object]:
    """Encode a numpy array as a packed JSON-safe dict."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype.kind not in _ALLOWED_KINDS:
        raise ValueError(f"cannot encode dtype {arr.dtype} over the wire")
    le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    return {
        "dtype": arr.dtype.name,
        "shape": list(arr.shape),
        "data_b64": base64.b64encode(le.tobytes()).decode("ascii"),
    }


def decode_array(obj: object, *, field: str = "array") -> np.ndarray:
    """Decode the packed dict form or plain nested lists into an array.

    Raises :class:`~repro.serve.errors.BadRequest` (not bare exceptions)
    on malformed input, so the server maps decode failures to 400s.
    """
    if isinstance(obj, dict):
        try:
            dtype = np.dtype(str(obj["dtype"]))
            shape = tuple(int(d) for d in obj["shape"])
            raw = base64.b64decode(str(obj["data_b64"]), validate=True)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise BadRequest(f"{field}: malformed packed array: {exc}") from None
        return _array_from_buffer(raw, dtype.newbyteorder("<"), shape, field=field)
    if isinstance(obj, list):
        try:
            arr = np.asarray(obj)
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"{field}: not an array: {exc}") from None
        if arr.dtype.kind not in _ALLOWED_KINDS:
            raise BadRequest(f"{field}: elements must be numeric")
        return arr
    raise BadRequest(f"{field}: expected a packed array object or nested lists")


def encode_csr(A: CSRMatrix) -> Dict[str, object]:
    """Encode a CSR matrix as its three packed arrays plus the shape."""
    return {
        "shape": [int(A.nrows), int(A.ncols)],
        "rowptr": encode_array(A.rowptr),
        "col": encode_array(A.col),
        "val": encode_array(A.val),
    }


def decode_csr(payload: Dict[str, object]) -> CSRMatrix:
    """Decode a registration payload into a validated :class:`CSRMatrix`."""
    for key in ("shape", "rowptr", "col", "val"):
        if key not in payload:
            raise BadRequest(f"matrix payload missing {key!r}")
    shape = payload["shape"]
    if not isinstance(shape, (list, tuple)) or len(shape) != 2:
        raise BadRequest("matrix shape must be a [rows, cols] pair")
    rowptr = decode_array(payload["rowptr"], field="rowptr")
    col = decode_array(payload["col"], field="col")
    val = decode_array(payload["val"], field="val")
    try:
        return CSRMatrix(rowptr, col, val, (int(shape[0]), int(shape[1])))
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"invalid CSR structure: {exc}") from None


def report_payload(report: Optional[MultiplyReport]) -> Dict[str, object]:
    """Flatten a multiply report into the JSON summary of a response."""
    if report is None:
        return {}
    out: Dict[str, object] = {
        "backend": report.backend,
        "gflops": float(report.gflops),
        "simulated_ms": float(report.simulated_ms),
        "n_blocks": int(report.n_blocks),
        "bound": report.bound,
    }
    pre = report.preprocessing
    if pre is not None:
        out["reorder"] = pre.algorithm
        out["block_shape"] = list(pre.block_shape)
        if pre.fallback_from:
            out["fallback_from"] = pre.fallback_from
    return out
