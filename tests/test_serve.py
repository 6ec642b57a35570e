"""The HTTP serving daemon: wire format, tenancy, admission, endpoints.

Unit layers (wire codecs, authenticator, quotas, registry, admission
controller) are tested directly; the HTTP surface is tested end to end
against a live in-process :class:`~repro.serve.SpMMServer` on an
ephemeral port, through both the stdlib :class:`~repro.serve.SpMMClient`
and raw ``urllib``/``http.client`` requests (for header-level assertions
and for several requests on one connection).
"""

import http.client
import io
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pytest

import repro
import repro.serve.app as serve_app
from repro import ExecutionPolicy, SMaT, SMaTConfig
from repro.core.plan import matrix_fingerprint
from repro.matrices import band_matrix
from repro.serve import (
    INFO_HEADER,
    NPY_CONTENT_TYPE,
    AdmissionController,
    Authenticator,
    BadRequest,
    MatrixRegistry,
    NotFound,
    Overloaded,
    PlanQuota,
    QuotaExceeded,
    ServeClientError,
    SpMMClient,
    SpMMServer,
    Tenant,
    Unauthorized,
    decode_array,
    decode_csr,
    decode_npy,
    encode_array,
    encode_csr,
    encode_npy,
    parse_token_specs,
)

N = 480

#: serve one multiply over HTTP and run one tuned execute_one, then close
#: everything; a clean shutdown leaves only the main thread and no stderr
CLEAN_SHUTDOWN = """
import threading
import numpy as np
from repro import ExecutionPolicy
from repro.engine import SpMMEngine
from repro.matrices import band_matrix
from repro.serve import SpMMClient, SpMMServer
from repro.tuner import Tuner

A = band_matrix(256, 8, rng=np.random.default_rng(0))
B = np.ones((A.ncols, 4), dtype=np.float32)
with SpMMServer(policy=ExecutionPolicy(max_workers=2)) as server:
    client = SpMMClient(server.url)
    client.multiply(client.register(A), B)
tuner = Tuner(cache=False, max_measure=2)
with SpMMEngine(policy=ExecutionPolicy(max_workers=1), tuner=tuner) as engine:
    engine.execute_one(A, B)
print(",".join(t.name for t in threading.enumerate()))
"""


@pytest.fixture(scope="module")
def A():
    return band_matrix(N, 8)


@pytest.fixture(scope="module")
def B(A):
    rng = np.random.default_rng(7)
    return rng.standard_normal((A.ncols, 8)).astype(np.float32)


@pytest.fixture(scope="module")
def open_server():
    with SpMMServer(policy=ExecutionPolicy(max_workers=2)) as server:
        yield server


@pytest.fixture(scope="module")
def client(open_server):
    return SpMMClient(open_server.url)


def npy_header(header: str, version=(1, 0)) -> bytes:
    """The magic string, length field and ``header`` of an npy file."""
    raw = header.encode("latin1")
    length = struct.pack("<H" if version == (1, 0) else "<I", len(raw))
    return b"\x93NUMPY" + bytes(version) + length + raw


def npy_file(descr="<f4", shape=(1,), *, fortran=False, pad=0, data=b"") -> bytes:
    """An npy file with the given header fields followed by ``data``."""
    header = f"{{'descr': {descr!r}, 'fortran_order': {fortran}, 'shape': {shape!r}, }}"
    return npy_header(header + " " * pad) + data


_GOOD_NPY = npy_file(shape=(3, 4), data=bytes(48))

#: malformed npy bodies, each of which must be a 400, never a 500
BAD_NPY = {
    "object_dtype": npy_file("|O", data=bytes(8)),
    "byte_count_mismatch": _GOOD_NPY[:-4],
    "truncated_header": _GOOD_NPY[:20],
    "fortran_order": npy_file(shape=(2, 2), fortran=True, data=bytes(16)),
    "oversized_header": npy_file(pad=4096, data=bytes(4)),
    "bad_magic": b"XNUMPY" + _GOOD_NPY[6:],
    "unknown_version": b"\x93NUMPY\x03\x00" + _GOOD_NPY[8:],
    "negative_dims": npy_file(shape=(-2, -2), data=bytes(16)),
    "unparsable_header": npy_header("{'descr': '<f4', 'shape': ((((, }"),
    "empty": b"",
}

#: packed arrays whose shape used to escape as a bare ValueError or
#: OverflowError (a 500 over HTTP)
BAD_PACKED_SHAPES = [
    {"dtype": "float32", "shape": [-2, -2], "data_b64": "A" * 24},
    {"dtype": "float32", "shape": [-1, -4], "data_b64": "A" * 24},
    {"dtype": "float32", "shape": [1e30], "data_b64": "AAAAAA=="},
    {"dtype": "float32", "shape": [0, 10**30], "data_b64": ""},
]


class TestWireFormat:
    def test_array_roundtrip_packed(self):
        for arr in (
            np.arange(12, dtype=np.float32).reshape(3, 4),
            np.array([1, 2, 3], dtype=np.int64),
            np.zeros((0, 5), dtype=np.float64),
        ):
            out = decode_array(encode_array(arr))
            assert out.dtype == arr.dtype and out.shape == arr.shape
            np.testing.assert_array_equal(out, arr)

    def test_decoded_arrays_are_writable(self):
        out = decode_array(encode_array(np.ones(4, dtype=np.float32)))
        out[0] = 2.0  # CSR construction sorts row segments in place

    def test_array_accepts_nested_lists(self):
        out = decode_array([[1.0, 2.0], [3.0, 4.0]])
        assert out.shape == (2, 2)

    def test_array_rejects_malformed(self):
        with pytest.raises(BadRequest):
            decode_array({"dtype": "float32", "shape": [4]})  # no data
        with pytest.raises(BadRequest):
            decode_array({"dtype": "object", "shape": [1], "data_b64": "AA=="})
        with pytest.raises(BadRequest):
            decode_array(
                {"dtype": "float32", "shape": [100], "data_b64": "AAAA"}
            )  # length mismatch
        with pytest.raises(BadRequest):
            decode_array("not an array")

    @pytest.mark.parametrize("obj", BAD_PACKED_SHAPES, ids=lambda o: str(o["shape"]))
    def test_packed_malformed_shapes_are_bad_request(self, obj):
        with pytest.raises(BadRequest):
            decode_array(obj)

    def test_npy_roundtrip(self):
        for arr in (
            np.arange(12, dtype=np.float32).reshape(3, 4),
            np.array([1, 2, 3], dtype=np.int64),
            np.zeros((0, 5), dtype=np.float64),
            np.asfortranarray(np.ones((3, 2), dtype=np.float32)),  # sent as C order
        ):
            out = decode_npy(encode_npy(arr))
            assert out.dtype == arr.dtype and out.shape == arr.shape
            assert out.flags.writeable
            np.testing.assert_array_equal(out, arr)

    def test_npy_big_endian_decodes_to_native(self):
        big = np.arange(6, dtype=">f4").reshape(2, 3)
        out = decode_npy(encode_npy(big))
        assert out.dtype == np.dtype("float32") and out.dtype.isnative
        np.testing.assert_array_equal(out, big)

    @pytest.mark.parametrize("body", list(BAD_NPY.values()), ids=list(BAD_NPY))
    def test_npy_rejects_malformed(self, body):
        with pytest.raises(BadRequest):
            decode_npy(body)

    def test_npy_decodes_from_racing_threads(self):
        """numpy parses npy headers with ``ast.literal_eval``, whose AST
        conversion fails ("AST constructor recursion depth mismatch") when
        two threads interleave in it.  A gc callback that yields the GIL
        inside every collection makes the interleaving certain without the
        decoder's lock."""
        import gc

        raw = encode_npy(np.arange(12, dtype=np.float32).reshape(3, 4))
        failures = []

        def decode_many():
            try:
                for _ in range(200):
                    assert decode_npy(raw).shape == (3, 4)
            except Exception as exc:  # reported by the assertion below
                failures.append(repr(exc))

        def yield_gil(phase, info):
            time.sleep(0)

        interval, threshold = sys.getswitchinterval(), gc.get_threshold()
        sys.setswitchinterval(1e-5)
        gc.set_threshold(5)
        gc.callbacks.append(yield_gil)
        try:
            threads = [threading.Thread(target=decode_many) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            gc.callbacks.remove(yield_gil)
            gc.set_threshold(*threshold)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []

    def test_npy_encoder_rejects_objects(self):
        with pytest.raises(ValueError):
            encode_npy(np.array([object()]))

    def test_csr_roundtrip_preserves_fingerprint(self, A):
        out = decode_csr(encode_csr(A))
        assert out.shape == A.shape and out.nnz == A.nnz
        assert matrix_fingerprint(out) == matrix_fingerprint(A)


class TestAuthUnits:
    def test_open_mode_accepts_anything(self):
        auth = Authenticator(None)
        assert auth.open
        assert auth.authenticate(None).name == "anonymous"
        assert auth.authenticate("Bearer whatever").name == "anonymous"

    def test_token_resolution_and_failures(self):
        auth = Authenticator({"tok": Tenant("alice"), "other": "bob"})
        assert not auth.open
        assert auth.authenticate("Bearer tok").name == "alice"
        assert auth.authenticate("bearer other").name == "bob"  # scheme is case-insensitive
        for bad in (None, "", "Basic tok", "Bearer", "Bearer  ", "Bearer nope"):
            with pytest.raises(Unauthorized):
                auth.authenticate(bad)

    def test_plan_quota_idempotent_per_key(self):
        quota = PlanQuota()
        tenant = Tenant("t", max_plans=2)
        quota.charge(tenant, "k1")
        quota.charge(tenant, "k1")  # re-use is free
        quota.charge(tenant, "k2")
        assert quota.used("t") == 2
        with pytest.raises(QuotaExceeded):
            quota.charge(tenant, "k3")

    def test_parse_token_specs(self):
        tokens = parse_token_specs(["alice=sekret", "bob:4:9=hunter2"])
        assert tokens["sekret"].name == "alice"
        assert tokens["hunter2"] == Tenant("bob", max_matrices=4, max_plans=9)
        for bad in ("noequals", "=tok", "name=", "a:b=t", "a:1:2:3=t"):
            with pytest.raises(ValueError):
                parse_token_specs([bad])


class TestRegistryUnits:
    def test_content_addressed_and_tenant_visible(self, A):
        registry = MatrixRegistry()
        alice, bob = Tenant("alice"), Tenant("bob")
        fp, created = registry.register(A, alice)
        assert created and fp == matrix_fingerprint(A)
        assert registry.register(A, alice) == (fp, False)  # idempotent
        assert registry.register(A, bob) == (fp, True)  # own registration
        assert registry.count() == 1  # one shared copy
        assert registry.get(fp, alice) is registry.get(fp, bob)
        with pytest.raises(NotFound):
            registry.get(fp, Tenant("eve"))

    def test_delete_frees_storage_when_last_reference_drops(self, A):
        registry = MatrixRegistry()
        alice, bob = Tenant("alice"), Tenant("bob")
        fp, _ = registry.register(A, alice)
        registry.register(A, bob)
        registry.delete(fp, alice)
        assert registry.count() == 1  # bob still holds it
        registry.delete(fp, bob)
        assert registry.count() == 0
        with pytest.raises(NotFound):
            registry.delete(fp, bob)

    def test_tenant_quota_and_global_capacity(self, A):
        registry = MatrixRegistry(capacity=1)
        small = Tenant("small", max_matrices=1)
        registry.register(A, small)
        with pytest.raises(QuotaExceeded):
            registry.register(band_matrix(N, 4), small)  # tenant quota
        with pytest.raises(QuotaExceeded):
            registry.register(band_matrix(N, 4), Tenant("other"))  # global cap


class TestAdmissionUnits:
    def test_slots_release_and_count(self):
        adm = AdmissionController(max_inflight=2, max_queue=0)
        with adm.admit():
            assert adm.inflight == 1
            with adm.admit():
                assert adm.inflight == 2
                with pytest.raises(Overloaded):
                    with adm.admit():
                        pass
        assert adm.inflight == 0 and adm.rejected == 1

    def test_queue_wait_then_timeout(self):
        adm = AdmissionController(max_inflight=1, max_queue=1, queue_timeout_s=0.05)
        with adm.admit():
            with pytest.raises(Overloaded):
                with adm.admit():  # waits 0.05s, then sheds
                    pass
        assert adm.rejected == 1

    def test_queued_request_gets_freed_slot(self):
        adm = AdmissionController(max_inflight=1, max_queue=1, queue_timeout_s=2.0)
        entered = threading.Event()
        release = threading.Event()

        def hold():
            with adm.admit():
                entered.set()
                release.wait(timeout=5.0)

        holder = threading.Thread(target=hold)
        holder.start()
        assert entered.wait(timeout=5.0)
        acquired = []

        def waiter():
            with adm.admit():
                acquired.append(True)

        waiting = threading.Thread(target=waiter)
        waiting.start()
        release.set()
        waiting.join(timeout=5.0)
        holder.join(timeout=5.0)
        assert acquired == [True]
        assert adm.rejected == 0


class TestHappyPath:
    def test_register_is_idempotent_and_content_addressed(self, client, A):
        fp = client.register(A)
        assert fp == client.register(A) == matrix_fingerprint(A)
        assert fp in [m["fingerprint"] for m in client.list_matrices()]

    def test_multiply_matches_inprocess_smat(self, client, A, B):
        fp = client.register(A)
        C, info = client.multiply(fp, B)
        C2, info2 = client.multiply(fp, B)
        assert info2["cache_hit"]
        np.testing.assert_allclose(C, SMaT(A).multiply(B), rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(C2, C)
        assert info2["report"]["backend"] == "smat"

    def test_multiply_with_config_override(self, client, A, B):
        fp = client.register(A)
        C, info = client.multiply(fp, B, config={"kernel": "cusparse"})
        assert info["report"]["backend"] == "cusparse"
        ref = SMaT(A, SMaTConfig(kernel="cusparse")).multiply(B)
        np.testing.assert_allclose(C, ref, rtol=1e-4, atol=1e-4)

    def test_async_job_roundtrip_and_single_consumption(self, client, A, B):
        fp = client.register(A)
        job = client.submit(fp, B)
        C = client.result(job)
        np.testing.assert_allclose(C, SMaT(A).multiply(B), rtol=1e-4, atol=1e-5)
        with pytest.raises(ServeClientError) as err:
            client.poll(job)  # consumed on the successful poll
        assert err.value.status == 404

    def test_stream_returns_results_in_order(self, client, A):
        rng = np.random.default_rng(3)
        Bs = [rng.standard_normal((A.ncols, 4)).astype(np.float32) for _ in range(7)]
        fp = client.register(A)
        results = list(client.stream(fp, Bs))
        assert [i for i, _ in results] == list(range(7))
        for (_, C), B_i in zip(results, Bs):
            np.testing.assert_allclose(C, SMaT(A).multiply(B_i), rtol=1e-4, atol=1e-5)

    def test_healthz_and_request_id_header(self, open_server):
        req = urllib.request.Request(open_server.url + "/healthz")
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers["X-Request-ID"]
            assert json.loads(resp.read())["status"] == "ok"


class TestErrorPaths:
    def test_unknown_fingerprint_is_404(self, client, B):
        with pytest.raises(ServeClientError) as err:
            client.multiply("0" * 32, B)
        assert err.value.status == 404 and err.value.code == "not_found"

    def test_unknown_route_is_404(self, open_server):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(open_server.url + "/nope", timeout=10)
        assert err.value.code == 404

    def test_mismatched_operand_shape_is_400(self, client, A):
        fp = client.register(A)
        with pytest.raises(ServeClientError) as err:
            client.multiply(fp, np.ones((3, 2), dtype=np.float32))
        assert err.value.status == 400

    def test_unknown_config_field_is_400(self, client, A, B):
        fp = client.register(A)
        with pytest.raises(ServeClientError) as err:
            client.multiply(fp, B, config={"blocksize": 16})
        assert err.value.status == 400 and "blocksize" in str(err.value)

    def test_invalid_json_body_is_400(self, open_server):
        req = urllib.request.Request(
            open_server.url + "/multiply", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400

    def test_oversized_payload_is_413(self, A):
        with SpMMServer(policy=ExecutionPolicy(max_workers=1), max_body_bytes=1024) as server:
            with pytest.raises(ServeClientError) as err:
                SpMMClient(server.url).register(A)
            assert err.value.status == 413
            assert err.value.code == "payload_too_large"
            deadline = time.time() + 5.0
            while server.metrics.requests_total < 1 and time.time() < deadline:
                time.sleep(0.005)
            snap = server.metrics.snapshot()
            assert snap["rejected"] == {"payload_too_large": 1}


def _npy_multiply(conn, fingerprint, B, *, accept=NPY_CONTENT_TYPE, query=None):
    """One raw ``POST /multiply`` with an npy body on ``conn``."""
    params = {"fingerprint": fingerprint} if query is None else query
    conn.request(
        "POST",
        "/multiply?" + urllib.parse.urlencode(params),
        body=B if isinstance(B, bytes) else encode_npy(B),
        headers={"Content-Type": NPY_CONTENT_TYPE, "Accept": accept},
    )
    resp = conn.getresponse()
    return resp, resp.read()


def _connect(server) -> http.client.HTTPConnection:
    host, port = server.address
    return http.client.HTTPConnection(host, port, timeout=10)


def _wait_for(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while not predicate() and time.time() < deadline:
        time.sleep(0.005)
    return predicate()


class TestNpyWire:
    @pytest.mark.parametrize("obj", BAD_PACKED_SHAPES, ids=lambda o: str(o["shape"]))
    def test_malformed_packed_shape_is_400(self, open_server, client, A, obj):
        body = json.dumps({"fingerprint": client.register(A), "B": obj}).encode()
        req = urllib.request.Request(open_server.url + "/multiply", data=body, method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["code"] == "bad_request"

    def test_npy_multiply_returns_npy_and_info_header(self, open_server, client, A, B):
        fp = client.register(A)
        conn = _connect(open_server)
        try:
            resp, raw = _npy_multiply(conn, fp, B)
        finally:
            conn.close()
        assert resp.status == 200
        assert resp.getheader("Content-Type") == NPY_CONTENT_TYPE
        info = json.loads(resp.getheader(INFO_HEADER))
        assert {"cache_hit", "wall_ms", "report"} <= set(info)
        np.testing.assert_allclose(decode_npy(raw), SMaT(A).multiply(B), rtol=1e-4, atol=1e-5)

    def test_json_accept_gets_packed_json(self, open_server, client, A, B):
        fp = client.register(A)
        conn = _connect(open_server)
        try:
            resp, raw = _npy_multiply(conn, fp, B, accept="application/json")
        finally:
            conn.close()
        assert resp.getheader("Content-Type") == "application/json"
        payload = json.loads(raw)
        np.testing.assert_allclose(
            decode_array(payload["C"]), SMaT(A).multiply(B), rtol=1e-4, atol=1e-5
        )

    @pytest.mark.parametrize("name", list(BAD_NPY) + ["missing_fingerprint", "bad_config"])
    def test_bad_npy_request_is_400_and_connection_survives(self, open_server, client, A, B, name):
        fp = client.register(A)
        body, query = BAD_NPY.get(name, encode_npy(B)), {"fingerprint": fp}
        if name == "missing_fingerprint":
            query = {}
        elif name == "bad_config":
            query = {"fingerprint": fp, "config": "{not json"}
        conn = _connect(open_server)
        try:
            resp, raw = _npy_multiply(conn, fp, body, query=query)
            assert resp.status == 400
            assert resp.getheader("Content-Type") == "application/json"
            assert json.loads(raw)["error"]["code"] == "bad_request"
            resp, raw = _npy_multiply(conn, fp, B)  # same connection
            assert resp.status == 200
            np.testing.assert_allclose(decode_npy(raw), SMaT(A).multiply(B), rtol=1e-4, atol=1e-5)
        finally:
            conn.close()

    def test_big_endian_operand_gives_the_native_result(self, client, A, B):
        fp = client.register(A)
        C_native, _ = client.multiply(fp, B)
        C_big, _ = client.multiply(fp, B.astype(">f4"))
        np.testing.assert_array_equal(C_big, C_native)

    def test_oversized_content_length_is_413_before_the_body(self):
        with SpMMServer(policy=ExecutionPolicy(max_workers=1), max_body_bytes=1024) as server:
            conn = _connect(server)
            try:
                # announce 100 MiB but send none of it: the 413 must not
                # wait for the body, and the connection is then dropped
                conn.putrequest("POST", "/multiply?fingerprint=x")
                conn.putheader("Content-Type", NPY_CONTENT_TYPE)
                conn.putheader("Content-Length", str(100 * 1024 * 1024))
                conn.endheaders()
                resp = conn.getresponse()
                assert resp.status == 413
                assert json.loads(resp.read())["error"]["code"] == "payload_too_large"
                assert resp.getheader("Connection") == "close"
            finally:
                conn.close()
            conn = _connect(server)
            try:
                # a small oversized body is drained: the connection survives
                resp, raw = _npy_multiply(conn, "x", bytes(4096))
                assert resp.status == 413
                resp, raw = _npy_multiply(conn, "0" * 32, np.ones((2, 2), np.float32))
                assert resp.status == 404  # reached the handler on the same connection
            finally:
                conn.close()


class TestKeepAlive:
    def test_requests_share_one_connection(self, A, B):
        with SpMMServer(policy=ExecutionPolicy(max_workers=1)) as server:
            with SpMMClient(server.url) as client:
                fp = client.register(A)
                for _ in range(5):
                    client.multiply(fp, B)
                assert len(server._httpd._connections) == 1

    def test_threads_share_one_client(self, A):
        rng = np.random.default_rng(11)
        operands = [rng.standard_normal((A.ncols, 4)).astype(np.float32) for _ in range(4)]
        expected = [SMaT(A).multiply(Bi) for Bi in operands]
        failures = []
        # admit all four at once: a queued request could time out into a 429
        with SpMMServer(policy=ExecutionPolicy(max_workers=4)) as server:
            with SpMMClient(server.url) as client:
                fp = client.register(A)

                def work(i):
                    try:
                        for _ in range(10):
                            C, _ = client.multiply(fp, operands[i])
                            if not np.allclose(C, expected[i], rtol=1e-4, atol=1e-5):
                                failures.append(f"thread {i}: wrong C")
                    except Exception as exc:  # reported by the assertion below
                        failures.append(f"thread {i}: {exc!r}")

                threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-5)  # interleave the threads finely
                try:
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=60)
                finally:
                    sys.setswitchinterval(interval)
                assert not any(t.is_alive() for t in threads)
                assert len(client._connections) == 5  # the main thread's + one per worker
        assert failures == []

    def test_reconnects_after_the_server_drops_the_connection(self, A, B):
        with SpMMServer(policy=ExecutionPolicy(max_workers=1)) as server:
            with SpMMClient(server.url) as client:
                fp = client.register(A)
                C, _ = client.multiply(fp, B)
                server._httpd.close_connections(timeout=5.0)
                assert _wait_for(lambda: not server._httpd._connections)
                C2, info = client.multiply(fp, B)  # the kept-alive socket is dead
                np.testing.assert_array_equal(C2, C)
                assert info["cache_hit"]

    def test_abandoned_stream_leaves_the_client_usable(self, client, A, B):
        fp = client.register(A)
        results = client.stream(fp, [B, B, B])
        next(results)
        results.close()
        C, _ = client.multiply(fp, B)
        np.testing.assert_allclose(C, SMaT(A).multiply(B), rtol=1e-4, atol=1e-5)

    def test_job_backlog_429_carries_retry_after(self, A, B):
        with SpMMServer(policy=ExecutionPolicy(max_workers=1), max_pending_jobs=0) as server:
            with SpMMClient(server.url) as client:
                fp = client.register(A)
                with pytest.raises(ServeClientError) as err:
                    client.submit(fp, B)
                assert err.value.status == 429 and err.value.retry_after is not None
                assert client.health()["status"] == "ok"  # same connection, still usable

    def test_client_close_ends_its_connections(self):
        with SpMMServer(policy=ExecutionPolicy(max_workers=1)) as server:
            with SpMMClient(server.url) as client:
                client.health()
                assert _wait_for(lambda: len(server._httpd._connections) == 1)
            assert _wait_for(lambda: not server._httpd._connections)
            assert client.health()["status"] == "ok"  # reopens on demand
            client.close()

    def test_idle_connection_times_out_and_the_client_reopens(self, A, B, monkeypatch, capfd):
        monkeypatch.setattr(serve_app._Handler, "idle_timeout", 0.2)
        exchanges = []
        exchange = SpMMClient._exchange

        def counted(*args):
            exchanges.append(args[2])
            return exchange(*args)

        monkeypatch.setattr(SpMMClient, "_exchange", staticmethod(counted))
        with SpMMServer(policy=ExecutionPolicy(max_workers=1)) as server:
            with SpMMClient(server.url) as client:
                before = set(threading.enumerate())
                fp = client.register(A)  # leaves one idle handler thread behind
                handlers = set(threading.enumerate()) - before
                assert handlers
                assert _wait_for(lambda: not any(t.is_alive() for t in handlers))
                assert not server._httpd._connections
                del exchanges[:]
                C, info = client.multiply(fp, B)  # the kept-alive socket is dead
                assert len(exchanges) == 2  # sent once, reopened, sent again
                np.testing.assert_allclose(C, A.spmm(B), rtol=1e-5)
                assert info["cache_hit"] is False
        assert capfd.readouterr().err == ""

    def test_idle_timeout_spares_a_request_in_progress(self, A, B, monkeypatch):
        """The idle timeout covers only the wait for a request line: a body
        that arrives later than it is still read and answered."""
        monkeypatch.setattr(serve_app._Handler, "idle_timeout", 0.2)
        with SpMMServer(policy=ExecutionPolicy(max_workers=1)) as server:
            with SpMMClient(server.url) as client:
                fp = client.register(A)
            body = encode_npy(B)
            head = (
                f"POST /multiply?fingerprint={fp} HTTP/1.1\r\nHost: x\r\n"
                f"Content-Type: {NPY_CONTENT_TYPE}\r\nContent-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            )
            with socket.create_connection(server.address) as sock:
                sock.sendall(head.encode("ascii"))
                time.sleep(0.5)
                sock.sendall(body)
                reply = sock.makefile("rb").read()
        assert reply.startswith(b"HTTP/1.1 200")
        C = decode_array(json.loads(reply.split(b"\r\n\r\n", 1)[1])["C"])
        np.testing.assert_allclose(C, A.spmm(B), rtol=1e-5)

    def test_close_ends_idle_kept_alive_connections(self):
        server = SpMMServer(policy=ExecutionPolicy(max_workers=1)).start()
        client = SpMMClient(server.url)
        before = set(threading.enumerate())
        client.health()  # leaves one idle handler thread behind
        handlers = set(threading.enumerate()) - before
        assert handlers
        start = time.perf_counter()
        server.close()
        assert time.perf_counter() - start < 5.0
        assert not [t for t in handlers if t.is_alive()]
        client.close()


class TestAuthOverHTTP:
    TOKENS = {"sekret": Tenant("alice", max_matrices=1, max_plans=1), "hunter2": "bob"}

    def test_missing_or_bad_token_is_401(self, A):
        with SpMMServer(policy=ExecutionPolicy(max_workers=1), tokens=self.TOKENS) as server:
            anon = SpMMClient(server.url)
            anon.health()  # healthz stays open
            with pytest.raises(ServeClientError) as err:
                anon.register(A)
            assert err.value.status == 401 and err.value.code == "unauthorized"
            with pytest.raises(ServeClientError) as err:
                SpMMClient(server.url, token="wrong").register(A)
            assert err.value.status == 401

    def test_registration_quota_429_with_retry_after(self, A):
        with SpMMServer(policy=ExecutionPolicy(max_workers=1), tokens=self.TOKENS) as server:
            alice = SpMMClient(server.url, token="sekret")
            alice.register(A)
            with pytest.raises(ServeClientError) as err:
                alice.register(band_matrix(N, 4))
            assert err.value.status == 429 and err.value.code == "quota_exceeded"
            assert err.value.retry_after is not None and err.value.retry_after >= 1

    def test_plan_quota_429(self, A, B):
        with SpMMServer(policy=ExecutionPolicy(max_workers=1), tokens=self.TOKENS) as server:
            alice = SpMMClient(server.url, token="sekret")
            fp = alice.register(A)
            alice.multiply(fp, B)  # charges the single plan slot
            alice.multiply(fp, B)  # same key, free
            with pytest.raises(ServeClientError) as err:
                alice.multiply(fp, B, config={"kernel": "cusparse"})
            assert err.value.status == 429 and err.value.code == "quota_exceeded"

    def test_cross_tenant_isolation(self, A, B):
        with SpMMServer(policy=ExecutionPolicy(max_workers=1), tokens=self.TOKENS) as server:
            alice = SpMMClient(server.url, token="sekret")
            bob = SpMMClient(server.url, token="hunter2")
            fp = alice.register(A)
            with pytest.raises(ServeClientError) as err:
                bob.multiply(fp, B)  # bob never registered it
            assert err.value.status == 404
            job = alice.submit(fp, B)
            alice.result(job)
            fp_b = bob.register(A)  # same content, own registration
            assert fp_b == fp
            assert server.registry.count() == 1

    def test_job_ids_do_not_leak_across_tenants(self, A, B):
        with SpMMServer(policy=ExecutionPolicy(max_workers=1), tokens=self.TOKENS) as server:
            alice = SpMMClient(server.url, token="sekret")
            bob = SpMMClient(server.url, token="hunter2")
            fp = alice.register(A)
            job = alice.submit(fp, B)
            with pytest.raises(ServeClientError) as err:
                bob.poll(job)
            assert err.value.status == 404  # not "forbidden": ids must not leak
            alice.result(job)


class TestOverload:
    def test_full_admission_queue_is_429_with_retry_after(self, A, B):
        with SpMMServer(
            policy=ExecutionPolicy(max_workers=1),
            max_inflight=1,
            max_queue=0,
            queue_timeout_s=0.05,
        ) as server:
            client = SpMMClient(server.url)
            fp = client.register(A)
            with server.admission.admit():  # occupy the only slot
                with pytest.raises(ServeClientError) as err:
                    client.multiply(fp, B)
            assert err.value.status == 429 and err.value.code == "overloaded"
            assert err.value.retry_after is not None
            client.multiply(fp, B)  # slot free again: admitted

    def test_job_backlog_bound_is_429(self, A, B):
        with SpMMServer(policy=ExecutionPolicy(max_workers=1), max_pending_jobs=0) as server:
            client = SpMMClient(server.url)
            fp = client.register(A)
            with pytest.raises(ServeClientError) as err:
                client.submit(fp, B)
            assert err.value.status == 429 and err.value.code == "overloaded"


class TestObservability:
    def test_metrics_counter_deltas(self, A, B):
        with SpMMServer(policy=ExecutionPolicy(max_workers=1)) as server:
            client = SpMMClient(server.url)
            before = client.metrics()
            fp = client.register(A)
            client.multiply(fp, B)
            client.multiply(fp, B)
            # a response is written before its request is accounted, so
            # wait for the server side to catch up before scraping
            deadline = time.time() + 5.0
            while server.metrics.requests_total < 4 and time.time() < deadline:
                time.sleep(0.005)
            after = client.metrics()

            # register + two multiplies + the first scrape itself (a scrape
            # is accounted after its snapshot is built, so 'after' excludes
            # only its own request)
            delta = after["requests_total"] - before["requests_total"]
            assert delta == 4
            assert after["requests_by_endpoint"]["POST /multiply"] == 2
            assert after["requests_by_endpoint"]["POST /matrices"] == 1
            assert after["responses_by_status"]["200"] >= 2
            assert after["responses_by_status"]["201"] == 1
            assert after["plan_cache"]["hits"] == 1
            assert after["plan_cache"]["misses"] == 1
            assert after["engine"]["completed"] == 2
            assert after["matrices_registered"] == 1
            assert after["bytes_in"] > before["bytes_in"]
            assert after["latency_ms"]["count"] >= 3

    def test_rejections_are_counted_by_reason(self, A, B):
        tokens = {"t": Tenant("solo", max_matrices=1, max_plans=1)}
        with SpMMServer(policy=ExecutionPolicy(max_workers=1), tokens=tokens) as server:
            solo = SpMMClient(server.url, token="t")
            with pytest.raises(ServeClientError):
                SpMMClient(server.url).register(A)  # 401
            fp = solo.register(A)
            with pytest.raises(ServeClientError):
                solo.register(band_matrix(N, 4))  # 429 quota
            solo.multiply(fp, B)
            deadline = time.time() + 5.0
            while server.metrics.requests_total < 4 and time.time() < deadline:
                time.sleep(0.005)
            rejected = solo.metrics()["rejected"]
            assert rejected["unauthorized"] == 1
            assert rejected["quota_exceeded"] == 1

    def test_structured_request_log(self, A, B):
        log = io.StringIO()
        with SpMMServer(policy=ExecutionPolicy(max_workers=1), log_stream=log) as server:
            client = SpMMClient(server.url)
            fp = client.register(A)
            client.multiply(fp, B)
        records = [json.loads(line) for line in log.getvalue().splitlines()]
        assert [r["path"] for r in records] == ["/matrices", "/multiply"]
        assert all(r["event"] == "request" for r in records)
        assert all(
            {"ts", "request_id", "method", "tenant", "status", "wall_ms", "bytes_in"}
            <= set(r)
            for r in records
        )
        assert len({r["request_id"] for r in records}) == 2
        assert records[0]["status"] == 201 and records[1]["status"] == 200


class TestLifecycle:
    def test_close_is_idempotent_and_closes_owned_engine(self):
        server = SpMMServer(policy=ExecutionPolicy(max_workers=1))
        server.start()
        server.close()
        server.close()
        with pytest.raises(RuntimeError):
            server.engine.multiply(band_matrix(N, 4), np.ones((N, 2), dtype=np.float32))

    def test_external_engine_is_not_closed(self, A, B):
        from repro.engine import SpMMEngine

        with SpMMEngine(policy=ExecutionPolicy(max_workers=1)) as engine:
            with SpMMServer(engine=engine) as server:
                client = SpMMClient(server.url)
                fp = client.register(A)
                client.multiply(fp, B)
            engine.multiply(A, B)  # still open after the server shut down

    def test_clean_shutdown_leaves_no_threads_and_no_stderr(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", CLEAN_SHUTDOWN],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.strip() == "MainThread"

    def test_url_resolves_ephemeral_port(self, open_server):
        host, port = open_server.address
        assert port > 0
        assert open_server.url == f"http://{host}:{port}"
