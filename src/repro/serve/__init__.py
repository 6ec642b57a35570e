"""SpMM-as-a-service: the HTTP serving layer on top of the engine.

This package turns the in-process :class:`~repro.engine.SpMMEngine` into
a long-lived, multi-tenant daemon: clients register CSR matrices by
content fingerprint, then issue synchronous multiplies, async jobs, or
streamed batches over plain HTTP (npy or JSON bodies) -- every request
benefiting from the same shared plan cache that makes repeated SpMM
cheap in-process.
Start it from Python (:class:`SpMMServer`) or the CLI (``repro serve``);
talk to it with :class:`SpMMClient` or any HTTP client.

See ``docs/serving.md`` for the executable operations manual.
"""

from .admission import AdmissionController
from .app import SpMMServer
from .auth import Authenticator, PlanQuota, Tenant, parse_token_specs
from .client import ServeClientError, SpMMClient
from .errors import (
    ApiError,
    BadRequest,
    NotFound,
    Overloaded,
    PayloadTooLarge,
    QuotaExceeded,
    Unauthorized,
)
from .metrics import ServerMetrics
from .registry import MatrixRegistry
from .wire import (
    INFO_HEADER,
    NPY_CONTENT_TYPE,
    decode_array,
    decode_csr,
    decode_npy,
    encode_array,
    encode_csr,
    encode_npy,
)

__all__ = [
    "SpMMServer",
    "SpMMClient",
    "ServeClientError",
    "AdmissionController",
    "Authenticator",
    "PlanQuota",
    "Tenant",
    "parse_token_specs",
    "MatrixRegistry",
    "ServerMetrics",
    "ApiError",
    "BadRequest",
    "Unauthorized",
    "NotFound",
    "PayloadTooLarge",
    "QuotaExceeded",
    "Overloaded",
    "encode_array",
    "decode_array",
    "encode_npy",
    "decode_npy",
    "NPY_CONTENT_TYPE",
    "INFO_HEADER",
    "encode_csr",
    "decode_csr",
]
