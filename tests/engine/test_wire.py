"""The v2 wire format: frame codec, serve negotiation, shm spill."""

import gc
import io
import json
import random
import socket
import socketserver
import struct
import threading
import tracemalloc

import pytest

from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine import columnar, executors, fingerprint, wire
from repro.engine.index import BagIndex
from repro.engine.jobs import parse_jobs, run_jobs
from repro.engine.session import BagRef, BagsWanted, Engine
from repro.errors import ReproError
from repro.io import bag_to_dict
from repro import server as server_module
from repro.server import ReproServer, ServeClient
from repro.workloads.generators import wide_planted_pair

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])

_UNIQ = [0]


def wide_pair(n_rows=64):
    """A fresh consistent wide-schema pair with a disjoint value pool
    (the per-test seed keeps index sharing from hiding decode work)."""
    _UNIQ[0] += 1
    rng = random.Random(900_000 + _UNIQ[0])
    _, r, s = wide_planted_pair(rng, n_rows=n_rows)
    return r, s


def small_pair(mult=2):
    r = Bag.from_pairs(AB, [((1, 2), mult), ((2, 2), 1)])
    s = Bag.from_pairs(BC, [((2, 3), mult + 1)])
    return r, s


def round_trip(payload):
    frame = wire.encode_jobs_frame(payload)
    header, blob = wire.read_frame(io.BytesIO(frame))
    return wire.decode_jobs_frame(header, blob)


@pytest.fixture(autouse=True)
def no_leaked_segments():
    yield
    assert executors.active_shm_segments() == ()


@pytest.fixture
def tcp_server():
    server = ReproServer()
    address = server.bind_tcp()
    server.serve_in_background()
    yield server, address
    server.shutdown()


class TestFrameCodec:
    def test_round_trip_preserves_bags_and_seeds_fingerprints(self):
        r, s = wide_pair()
        decoded = round_trip({"pairs": [[r, s]]})
        l2, r2 = decoded["pairs"][0]
        assert l2 == r and r2 == s
        assert fingerprint.of_bag(l2) == fingerprint.of_bag(r)
        assert fingerprint.of_bag(r2) == fingerprint.of_bag(s)

    @pytest.mark.skipif(not columnar.AVAILABLE, reason="numpy required")
    def test_decode_adopts_encoding_without_reencoding(self):
        r, s = wide_pair()
        # prime the sender-side encodings before measuring
        frame = wire.encode_jobs_frame({"pairs": [[r, s]]})
        header, blob = wire.read_frame(io.BytesIO(frame))
        before = columnar.kernel_stats()["encodings"]
        decoded = wire.decode_jobs_frame(header, blob)
        assert columnar.kernel_stats()["encodings"] == before
        l2 = decoded["pairs"][0][0]
        encoded = BagIndex.of(l2)._columnar
        assert isinstance(encoded, columnar.ColumnarBag)
        # the adopted encoding answers marginals directly
        assert l2.marginal(Schema([l2.schema.attrs[0]])) == r.marginal(
            Schema([r.schema.attrs[0]])
        )

    def test_shared_bags_ship_once(self):
        r, s = wide_pair()
        frame = wire.encode_jobs_frame(
            {"pairs": [[r, s], [r, s], [r, r]]}
        )
        header, _ = wire.read_frame(io.BytesIO(frame))
        assert len(header["bags"]) == 2
        decoded = wire.decode_jobs_frame(
            *wire.read_frame(io.BytesIO(frame))
        )
        assert decoded["pairs"][0][0] is decoded["pairs"][2][1]

    def test_equal_ints_in_one_frame_decode_to_one_object(self):
        # values past the interpreter's small-int cache, shared by the
        # two bags' columns: each distinct value is one object, so a
        # stored witness keeps one copy alive, not one per column
        r = Bag.from_pairs(AB, [((1000 + i, 5000 + i), 1) for i in range(40)])
        s = Bag.from_pairs(BC, [((5000 + i, 1000 + i), 1) for i in range(40)])
        l2, r2 = round_trip({"pairs": [[r, s]]})["pairs"][0]
        values = [v for bag in (l2, r2) for row, _ in bag.items() for v in row]
        assert len({id(v) for v in values}) == len(set(values)) == 80

    def test_small_bags_ride_inline_json(self):
        r, s = small_pair()
        frame = wire.encode_jobs_frame({"pairs": [[r, s]]})
        header, blob = wire.read_frame(io.BytesIO(frame))
        assert all("json" in desc for desc in header["bags"])
        decoded = wire.decode_jobs_frame(header, blob)
        l2 = decoded["pairs"][0][0]
        assert l2 == r
        assert fingerprint.of_bag(l2) == fingerprint.of_bag(r)

    def test_dict_payloads_and_ops_pass_through(self):
        r, s = small_pair()
        payload = {
            "op": "batch",
            "pairs": [[bag_to_dict(r), bag_to_dict(s)]],
            "suites": [["planted-path", 4, 0]],
        }
        decoded = round_trip(payload)
        assert decoded["op"] == "batch"
        assert decoded["suites"] == [["planted-path", 4, 0]]
        assert decoded["pairs"][0][0] == r
        assert round_trip({"op": "stats"}) == {"op": "stats"}

    def test_report_identical_across_formats(self):
        r, s = wide_pair()
        framed = run_jobs(parse_jobs(round_trip({"pairs": [[r, s]]})), Engine())
        json_payload = json.loads(
            json.dumps(wire.jsonify_payload({"pairs": [[r, s]]}))
        )
        rowed = run_jobs(parse_jobs(json_payload), Engine())
        assert framed["pairs"] == rowed["pairs"]

    @pytest.mark.skipif(not columnar.AVAILABLE, reason="numpy required")
    def test_pure_python_decode_is_bit_identical(self):
        r, s = wide_pair()
        frame = wire.encode_jobs_frame({"pairs": [[r, s]]})
        header, blob = wire.read_frame(io.BytesIO(frame))
        with columnar.disabled():
            decoded = wire.decode_jobs_frame(header, blob)
        l2, r2 = decoded["pairs"][0]
        assert l2 == r and r2 == s

    @pytest.mark.skipif(not columnar.AVAILABLE, reason="numpy required")
    def test_remap_is_independent_of_sender_dictionary_order(self):
        # simulate a foreign client whose dictionaries are ordered
        # differently from ours: reverse every column's dictionary and
        # rewrite the codes; the receiver adopts the permuted dictionary
        r, _ = wide_pair()
        encoded = columnar.of_index(BagIndex.of(r))
        writer = wire._BlobWriter()
        cols = []
        for codes, values in zip(encoded.cols, encoded.dicts):
            k = len(values)
            cols.append({
                "codes": writer.add(
                    (k - 1 - codes).astype("<i8").tobytes()
                ),
                "values": list(reversed(values)),
            })
        desc = {
            "schema": list(encoded.attrs),
            "n": len(encoded.rows),
            "total": encoded.total,
            "fp": fingerprint.of_bag(r),
            "mults": writer.add(encoded.mults.astype("<i8").tobytes()),
            "cols": cols,
        }
        frame = wire.pack_frame(
            {"v": wire.VERSION, "payload": {"pairs": [[{"$bag": 0},
             {"$bag": 0}]]}, "bags": [desc]},
            writer,
        )
        decoded = wire.decode_jobs_frame(*wire.read_frame(io.BytesIO(frame)))
        assert decoded["pairs"][0][0] == r
        # (the decoded bag shares r's index, so adopt directly to look
        # at the encoding: the permuted dictionary is kept as shipped)
        blob = memoryview(writer.getvalue())
        _, _, adopted = columnar.import_encoding(
            encoded.attrs, len(encoded.rows),
            wire._blob_slice(blob, desc["mults"], 8 * len(encoded.rows)),
            [
                (wire._blob_slice(blob, col["codes"], 8 * len(encoded.rows)),
                 col["values"])
                for col in cols
            ],
        )
        assert adopted.dicts[0] == list(reversed(encoded.dicts[0]))
        target = (encoded.attrs[0],)
        assert adopted.marginal_table(target) == encoded.marginal_table(target)

    def test_truncated_frame_raises(self):
        r, s = small_pair()
        frame = wire.encode_jobs_frame({"pairs": [[r, s]]})
        for cut in (2, 10, len(frame) - 1):
            with pytest.raises(wire.WireError, match="truncated"):
                wire.read_frame(io.BytesIO(frame[:cut]))

    def test_oversized_lengths_rejected(self, monkeypatch):
        r, s = small_pair()
        frame = wire.encode_jobs_frame({"pairs": [[r, s]]})
        monkeypatch.setattr(wire, "MAX_HEADER_BYTES", 8)
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.read_frame(io.BytesIO(frame))

    def test_bad_magic_rejected(self):
        with pytest.raises(wire.WireError, match="magic"):
            wire.read_frame(io.BytesIO(b"NOPE" + b"\x00" * 64))

    @pytest.mark.skipif(
        not columnar.AVAILABLE,
        reason="columnar descriptors require numpy (inline JSON otherwise)",
    )
    def test_malformed_descriptors_rejected(self):
        def tampered(mutate):
            r, _ = wide_pair()
            frame = wire.encode_jobs_frame({"pairs": [[r, r]]})
            header, blob = wire.read_frame(io.BytesIO(frame))
            mutate(header["bags"][0])
            return header, blob

        header, blob = tampered(lambda d: d.update(total=d["total"] + 1))
        with pytest.raises(wire.WireError, match="total mismatch"):
            wire.decode_jobs_frame(header, blob)
        header, blob = tampered(lambda d: d.update(fp="nope"))
        with pytest.raises(wire.WireError, match="fingerprint"):
            wire.decode_jobs_frame(header, blob)
        header, blob = tampered(lambda d: d["cols"][0].update(values=[]))
        with pytest.raises(wire.WireError):
            wire.decode_jobs_frame(header, blob)
        header, blob = tampered(lambda d: d.update(mults=[1 << 40, 8]))
        with pytest.raises(wire.WireError, match="blob reference"):
            wire.decode_jobs_frame(header, blob)

        def repeat_value(desc):
            values = desc["cols"][0]["values"]
            values[1] = values[0]

        header, blob = tampered(repeat_value)
        with pytest.raises(wire.WireError, match="repeated value"):
            wire.decode_jobs_frame(header, blob)
        header, blob = tampered(
            lambda d: d["cols"][0]["values"].__setitem__(0, [1, 2])
        )
        with pytest.raises(wire.WireError, match="unhashable"):
            wire.decode_jobs_frame(header, blob)

    def test_bad_bag_reference_rejected(self):
        frame = wire.pack_frame({
            "v": wire.VERSION,
            "payload": {"pairs": [[{"$bag": 5}, {"$bag": 5}]]},
            "bags": [],
        })
        header, blob = wire.read_frame(io.BytesIO(frame))
        with pytest.raises(wire.WireError, match="bag reference"):
            wire.decode_jobs_frame(header, blob)


class TestServeNegotiation:
    def test_columnar_and_json_clients_agree(self, tcp_server):
        _, address = tcp_server
        r, s = wide_pair()
        with ServeClient(address, wire_format="columnar") as client:
            framed = client.request({"pairs": [[r, s]]})
            assert client.wire_version == wire.VERSION
            stats = client.request({"op": "stats"})
        with ServeClient(address, wire_format="json") as client:
            rowed = client.request({"pairs": [[r, s]]})
            assert client.wire_version == 1
        assert framed["ok"] and rowed["ok"]
        assert framed["report"]["pairs"] == rowed["report"]["pairs"]
        assert stats["wire_format"] == "columnar"
        assert stats["kernels"]["wire_frames_decoded"] >= 1

    def test_auto_negotiates_only_for_bag_payloads(self, tcp_server):
        _, address = tcp_server
        r, s = small_pair()
        with ServeClient(address) as client:
            dict_jobs = {"pairs": [[bag_to_dict(r), bag_to_dict(s)]]}
            assert client.request(dict_jobs)["ok"]
            assert client.wire_version is None  # still pure v1 traffic
            assert client.request({"pairs": [[r, s]]})["ok"]
            assert client.wire_version == wire.VERSION

    def test_v2_client_degrades_against_v1_only_server(self):
        server = ReproServer(wire_format="json")
        address = server.bind_tcp()
        server.serve_in_background()
        try:
            r, s = wide_pair()
            with ServeClient(address, wire_format="columnar") as client:
                report = client.request({"pairs": [[r, s]]})
                assert client.wire_version == 1
                assert report["ok"]
                assert report["report"]["pairs"] == [{"consistent": True}]
                stats = client.request({"op": "stats"})
                assert stats["ok"] and stats["wire_format"] == "json"
                assert client.request({"op": "ping"})["ok"]
                assert client.request({"op": "shutdown"})["ok"]
        finally:
            server.shutdown()

    def test_v1_client_against_v2_server_runs_every_op(self, tcp_server):
        _, address = tcp_server
        r, s = small_pair()
        with ServeClient(address, wire_format="json") as client:
            jobs = {"pairs": [[bag_to_dict(r), bag_to_dict(s)]]}
            assert client.request(jobs)["ok"]
            assert client.request({"op": "ping"})["ok"]
            assert client.request({"op": "stats"})["ok"]

    def test_shutdown_over_frames(self):
        server = ReproServer()
        address = server.bind_tcp()
        server.serve_in_background()
        r, s = wide_pair()
        with ServeClient(address, wire_format="columnar") as client:
            assert client.request({"pairs": [[r, s]]})["ok"]
            bye = client.request({"op": "shutdown"})
            assert bye["ok"] and bye["bye"]
        server.shutdown()


class TestServeFailurePaths:
    def test_truncated_request_frame_leaves_server_alive(self, tcp_server):
        _, address = tcp_server
        raw = socket.create_connection(address, timeout=5)
        try:
            raw.sendall(wire.MAGIC + b"\x02\xff\xff")  # prefix cut short
        finally:
            raw.close()
        with ServeClient(address) as client:
            assert client.request({"op": "ping"})["ok"]

    def test_malformed_frame_gets_error_response(self, tcp_server):
        _, address = tcp_server
        frame = wire.pack_frame({"v": wire.VERSION})  # no payload object
        raw = socket.create_connection(address, timeout=5)
        try:
            raw.sendall(frame)
            rfile = raw.makefile("rb")
            header, _ = wire.read_frame(rfile)
            response = wire.response_from_frame(header)
            assert not response["ok"]
            assert "payload" in response["error"]
            # the stream is still synchronized: JSON lines keep working
            raw.sendall(b'{"op": "ping"}\n')
            assert json.loads(rfile.readline())["ok"]
        finally:
            raw.close()

    def test_oversized_line_refused_and_connection_closed(
        self, tcp_server, monkeypatch
    ):
        _, address = tcp_server
        monkeypatch.setattr(wire, "MAX_LINE", 1024)
        raw = socket.create_connection(address, timeout=5)
        try:
            raw.sendall(b"[" + b"1," * 2048 + b"1]")  # no newline, > cap
            rfile = raw.makefile("rb")
            response = json.loads(rfile.readline())
            assert not response["ok"]
            assert "exceeds" in response["error"]
            assert rfile.readline() == b""  # server closed the stream
        finally:
            raw.close()
        with ServeClient(address) as client:
            assert client.request({"op": "ping"})["ok"]

    def test_frames_refused_when_wire_format_json(self):
        server = ReproServer(wire_format="json")
        address = server.bind_tcp()
        server.serve_in_background()
        try:
            r, s = small_pair()
            frame = wire.encode_jobs_frame({"pairs": [[r, s]]})
            raw = socket.create_connection(address, timeout=5)
            try:
                raw.sendall(frame)
                rfile = raw.makefile("rb")
                header, _ = wire.read_frame(rfile)
                response = wire.response_from_frame(header)
                assert not response["ok"]
                assert "disabled" in response["error"]
            finally:
                raw.close()
        finally:
            server.shutdown()

    def test_server_closing_before_response_raises(self):
        class _Closer(socketserver.BaseRequestHandler):
            def handle(self):
                self.request.recv(64)
                self.request.close()

        listener = socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), _Closer
        )
        listener.daemon_threads = True
        threading.Thread(
            target=listener.serve_forever, daemon=True
        ).start()
        try:
            client = ServeClient(listener.server_address[:2])
            with pytest.raises(ReproError, match="closed"):
                client.request({"op": "ping"})
            client.close()
        finally:
            listener.shutdown()
            listener.server_close()

    def test_truncated_response_frame_raises(self):
        class _Partial(socketserver.BaseRequestHandler):
            def handle(self):
                self.request.recv(4096)
                self.request.sendall(wire.MAGIC + b"\x02\x01")
                self.request.close()

        listener = socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), _Partial
        )
        listener.daemon_threads = True
        threading.Thread(
            target=listener.serve_forever, daemon=True
        ).start()
        try:
            client = ServeClient(listener.server_address[:2])
            with pytest.raises(wire.WireError, match="truncated"):
                client.request({"op": "ping"})
            client.close()
        finally:
            listener.shutdown()
            listener.server_close()


@pytest.mark.skipif(not columnar.AVAILABLE, reason="numpy required")
class TestExecutorSpill:
    def test_spill_round_trip_matches_serial(self, monkeypatch):
        monkeypatch.setattr(executors, "SHM_MIN_BYTES", 1)
        pairs = [wide_pair() for _ in range(3)]
        pairs.append((pairs[0][0], pairs[1][1]))  # cross pair: False
        before = wire.wire_stats()["shm_segments_created"]
        engine = Engine()
        verdicts = engine.are_consistent_many(
            pairs, parallelism=2, backend="process"
        )
        assert wire.wire_stats()["shm_segments_created"] == before + 1
        assert executors.active_shm_segments() == ()
        serial = Engine().are_consistent_many(pairs)
        assert verdicts == serial == [True, True, True, False]

    def test_shared_bag_ships_once_per_batch(self, monkeypatch):
        monkeypatch.setattr(executors, "SHM_MIN_BYTES", 1)
        shared, _ = wide_pair()
        partners = [wide_pair()[0] for _ in range(4)]
        pairs = [(shared, partner) for partner in partners]
        shipped = []
        real = wire.encode_bag_table

        def spy(entries):
            entries = list(entries)
            shipped.append(len(entries))
            return real(entries)

        monkeypatch.setattr(wire, "encode_bag_table", spy)
        Engine().are_consistent_many(pairs, parallelism=2, backend="process")
        # 4 pairs x 2 bags, but only 5 distinct fingerprints travel
        assert shipped == [5]

    def test_wire_format_json_disables_spill(self, monkeypatch):
        monkeypatch.setattr(executors, "SHM_MIN_BYTES", 1)
        executors.set_wire_format("json")
        try:
            before = wire.wire_stats()["shm_segments_created"]
            pairs = [wide_pair() for _ in range(2)]
            verdicts = Engine().are_consistent_many(
                pairs, parallelism=2, backend="process"
            )
            assert verdicts == [True, True]
            assert wire.wire_stats()["shm_segments_created"] == before
        finally:
            executors.set_wire_format("columnar")

    def test_small_payloads_stay_on_pickle(self):
        before = wire.wire_stats()["shm_segments_created"]
        pairs = [small_pair(mult=m) for m in (2, 3)]
        verdicts = Engine().are_consistent_many(
            pairs, parallelism=2, backend="process"
        )
        assert verdicts == [True, True]
        assert wire.wire_stats()["shm_segments_created"] == before

    def test_set_wire_format_validates(self):
        with pytest.raises(ValueError, match="wire_format"):
            executors.set_wire_format("msgpack")


class TestObservability:
    def test_kernel_stats_carries_wire_counters(self):
        stats = columnar.kernel_stats()
        for key in (
            "wire_frames_encoded", "wire_frames_decoded",
            "wire_json_requests", "shm_segments_created",
            "shm_segments_adopted", "shm_bytes_spilled",
        ):
            assert key in stats

    def test_batch_report_surfaces_wire_counters(self):
        r, s = small_pair()
        report = run_jobs(
            parse_jobs({"pairs": [[bag_to_dict(r), bag_to_dict(s)]]}),
            Engine(),
        )
        assert "wire_frames_encoded" in report["kernels"]


def sent_frames(monkeypatch) -> list[int]:
    """Record the size of every jobs frame a client encodes — exactly
    the bytes the daemon reads and decodes for that request."""
    sizes: list[int] = []
    real = wire.encode_jobs_frame

    def spy(payload, refs=frozenset()):
        frame = real(payload, refs)
        sizes.append(len(frame))
        return frame

    monkeypatch.setattr(wire, "encode_jobs_frame", spy)
    return sizes


def ref_counts() -> tuple[int, int]:
    stats = wire.wire_stats()
    return stats["wire_bag_ref_hits"], stats["wire_bag_ref_wants"]


def raw_frame_request(address, header: dict) -> dict:
    """Send one hand-built jobs frame and read the framed response."""
    raw = socket.create_connection(address, timeout=10)
    try:
        raw.sendall(wire.pack_frame(header))
        response_header, _ = wire.read_frame(raw.makefile("rb"))
    finally:
        raw.close()
    return wire.response_from_frame(response_header)


class TestBagRefs:
    def test_mixed_ref_and_full_payload_decodes(self):
        (r1, s1), (r2, s2) = wide_pair(), wide_pair()
        small_r, small_s = small_pair(mult=7)
        known = {fingerprint.of_bag(r1), fingerprint.of_bag(small_s)}
        payload = {
            "pairs": [[r1, s1], [r2, s2]],
            "collections": [{"bags": [small_r, small_s]}],
            "suites": [["planted-path", 4, 0]],
        }
        plain = round_trip(payload)  # no refs unless asked
        assert plain["pairs"][0] == [r1, s1]
        frame = wire.encode_jobs_frame(payload, refs=known)
        header, blob = wire.read_frame(io.BytesIO(frame))
        assert header["bags"][0] == {"ref": fingerprint.of_bag(r1)}
        assert sum("ref" in desc for desc in header["bags"]) == 2
        decoded = wire.decode_jobs_frame(header, blob)
        assert decoded["pairs"][0] == [BagRef(fingerprint.of_bag(r1)), s1]
        assert decoded["pairs"][1] == [r2, s2]
        assert decoded["collections"][0]["bags"] == [
            small_r, BagRef(fingerprint.of_bag(small_s)),
        ]
        assert decoded["suites"] == [["planted-path", 4, 0]]
        jobs = parse_jobs(decoded)
        assert jobs.pairs[0][0] == BagRef(fingerprint.of_bag(r1))

    def test_malformed_refs_rejected(self):
        payload = {"pairs": [[{"$bag": 0}, {"$bag": 0}]]}
        for desc in ({"ref": -1}, {"ref": "x"}, {"ref": 1 << 128}):
            with pytest.raises(wire.WireError):
                wire.decode_jobs_frame(
                    {"v": 2, "payload": payload, "bags": [desc]}, b""
                )
        # spill frames never carry refs
        frame = wire.pack_frame({"v": 2, "bags": [{"ref": 5}]})
        with pytest.raises(wire.WireError):
            wire.decode_bag_table(frame)

    def test_evicted_entry_draws_want_then_one_resend(self, monkeypatch):
        server = ReproServer(capacity=1)
        address = server.bind_tcp()
        server.serve_in_background()
        (r1, s1), (r2, s2) = wide_pair(), wide_pair()
        try:
            with ServeClient(address, wire_format="columnar") as client:
                assert client.request({"pairs": [[r1, s1]]})["ok"]
                # the second pair's verdict evicts the first's
                assert client.request({"pairs": [[r2, s2]]})["ok"]
                hits, wants = ref_counts()
                sizes = sent_frames(monkeypatch)
                response = client.request({"pairs": [[r1, s1]]})
        finally:
            server.shutdown()
        assert response["ok"] and response["op"] == "batch"
        assert response["report"]["pairs"] == [{"consistent": True}]
        assert len(sizes) == 2  # the ref frame, then one full resend
        assert sizes[0] < 1024 < sizes[1]
        assert ref_counts() == (hits, wants + 2)

    def test_ref_to_unshipped_fingerprint_gets_want(self, tcp_server):
        server, address = tcp_server
        r, s = small_pair(mult=11)
        with ServeClient(address) as client:  # populate the store a bit
            assert client.request({"pairs": [[r, s]]})["ok"]
        entries = len(server.store)
        stranger = fingerprint.of_bag(small_pair(mult=12)[0])
        hits, wants = ref_counts()
        payload = {"pairs": [[{"$bag": 0}, {"$bag": 1}]]}
        # all refs, then one ref beside a full bag: never a verdict
        for bags, wanted in (
            ([{"ref": stranger}, {"ref": 12345}], [12345, stranger]),
            ([{"ref": stranger}, {"json": bag_to_dict(s)}], [stranger]),
        ):
            response = raw_frame_request(
                address, {"v": 2, "payload": payload, "bags": bags}
            )
            assert response == {"ok": True, "op": "want", "want": wanted}
            assert "report" not in response
        assert len(server.store) == entries  # a ref never writes the store
        assert ref_counts() == (hits, wants + 3)

    def test_refs_need_the_advertisement(self, monkeypatch):
        """A ``--wire-format json`` daemon and a daemon whose ping lacks
        ``bag_refs`` never receive a ref descriptor."""
        decoded = []
        real_decode = wire.decode_jobs_frame

        def spy(header, blob):
            decoded.extend(header.get("bags") or [])
            return real_decode(header, blob)

        monkeypatch.setattr(wire, "decode_jobs_frame", spy)

        class NoRefsServer(ReproServer):
            def _handle_op(self, payload, op, engine):
                response = super()._handle_op(payload, op, engine)
                response.pop("bag_refs", None)
                return response

        r, s = wide_pair()
        for server in (ReproServer(wire_format="json"), NoRefsServer()):
            address = server.bind_tcp()
            server.serve_in_background()
            try:
                with ServeClient(address, wire_format="columnar") as client:
                    for _ in range(3):
                        response = client.request({"pairs": [[r, s]]})
                        assert response["report"]["pairs"] == [
                            {"consistent": True}
                        ]
            finally:
                server.shutdown()
        assert len(decoded) == 6  # NoRefsServer: 3 frames x 2 full bags
        assert not any("ref" in desc for desc in decoded)

    def test_refs_with_inline_json_descriptors(self, tcp_server, monkeypatch):
        """The REPRO_NO_NUMPY path: bags ride inline JSON, refs still
        replace them on the repeat."""
        _, address = tcp_server
        r, s = wide_pair()
        sizes = sent_frames(monkeypatch)
        with columnar.disabled():
            frame = wire.encode_jobs_frame({"pairs": [[r, s]]})
            header, _ = wire.read_frame(io.BytesIO(frame))
            assert all("json" in desc for desc in header["bags"])
            with ServeClient(address, wire_format="columnar") as client:
                first = client.request({"pairs": [[r, s]]})
                hits, _ = ref_counts()
                second = client.request({"pairs": [[r, s]]})
        assert first["report"]["pairs"] == second["report"]["pairs"]
        assert sizes[-1] < 1024 < sizes[-2]
        assert ref_counts()[0] == hits + 2

    def test_a_job_with_a_new_bag_ships_its_known_bags_in_full(
        self, tcp_server, monkeypatch
    ):
        _, address = tcp_server
        (r, s), (_, t) = wide_pair(), wide_pair()
        sizes = sent_frames(monkeypatch)
        with ServeClient(address, wire_format="columnar") as client:
            assert client.request({"pairs": [[r, s]]})["ok"]
            hits, wants = ref_counts()
            # r is known but (r, t) has no stored answer: no ref, no want
            assert client.request({"pairs": [[r, t]]})["ok"]
        assert len(sizes) == 2
        assert ref_counts() == (hits, wants)

    def test_remembered_fingerprints_stay_bounded(self):
        known = server_module._KnownBags(server_module.KNOWN_BAGS)
        for start in range(0, 10_000, 2):
            known.remember([[start, start + 1]])
        assert len(known) == server_module.KNOWN_BAGS
        # least recently used go first: the newest pair is still known
        assert known.refs([[9_998, 9_999]]) == {9_998, 9_999}
        assert known.refs([[0, 1]]) == set()

    def test_client_memory_bounded_under_ten_thousand_bags(self, tcp_server):
        _, address = tcp_server
        schema = Schema(["A"])
        pairs = [
            [Bag.from_pairs(schema, [((i,), 1)]),
             Bag.from_pairs(schema, [((i,), 2)])]
            for i in range(5_000)
        ]
        with ServeClient(address, wire_format="columnar") as client:
            response = client.request({"pairs": pairs})
            assert response["ok"] and len(response["report"]["pairs"]) == 5_000
            assert len(client._known) == server_module.KNOWN_BAGS


class TestRefsFailClosed:
    def test_every_miss_branch_raises_bags_wanted(self):
        r, s = small_pair(mult=13)
        ref = BagRef(fingerprint.of_bag(Bag.from_pairs(AB, [((9, 9), 9)])))
        engine = Engine()
        calls = [
            lambda: engine.marginal(ref, Schema(["A"])),
            lambda: engine.join(ref, s),
            lambda: engine.are_consistent(r, ref),
            lambda: engine.witness(ref, s),
            lambda: engine.global_check([r, ref]),
            lambda: engine.are_consistent_many([(ref, s)], backend="thread",
                                               parallelism=2),
            lambda: engine.witness_many([(r, ref)], backend="process",
                                        parallelism=2),
            lambda: engine.global_check_many([[ref, s]], backend="process",
                                             parallelism=2),
        ]
        for call in calls:
            with pytest.raises(BagsWanted) as caught:
                call()
            assert caught.value.fps == [ref.fp]
        assert len(engine.store) == 0  # a ref never writes the store

    def test_refs_read_stored_answers(self):
        r, s = small_pair(mult=14)
        engine = Engine()
        assert engine.are_consistent(r, s)
        witness = engine.witness(r, s)
        verdict = engine.global_check([r, s])
        entries = len(engine.store)
        ref_r, ref_s = BagRef(fingerprint.of_bag(r)), BagRef(fingerprint.of_bag(s))
        assert engine.are_consistent(ref_s, ref_r)  # unordered key
        assert engine.witness(ref_r, ref_s) is witness
        assert engine.global_check([ref_r, s]) is verdict
        assert engine.are_consistent_many(
            [(ref_r, ref_s)], backend="process", parallelism=2
        ) == [True]
        assert len(engine.store) == entries


def foreign_frame(pair) -> bytes:
    """A jobs frame for one pair as another process's sender writes it:
    each column coded against a dictionary local to this frame, built
    without touching this process's columnar encoders."""
    writer = wire._BlobWriter()
    descriptors = []
    for bag in pair:
        items = list(bag.items())
        cols = []
        for j in range(len(bag.schema.attrs)):
            lookup: dict = {}
            codes = [lookup.setdefault(row[j], len(lookup)) for row, _ in items]
            cols.append({
                "codes": writer.add(struct.pack(f"<{len(codes)}q", *codes)),
                "values": list(lookup),
            })
        mults = [mult for _, mult in items]
        descriptors.append({
            "schema": list(bag.schema.attrs),
            "n": len(items),
            "total": sum(mults),
            "fp": fingerprint.of_bag(bag),
            "mults": writer.add(struct.pack(f"<{len(mults)}q", *mults)),
            "cols": cols,
        })
    return wire.pack_frame({
        "v": wire.VERSION,
        "payload": {"pairs": [[{"$bag": 0}, {"$bag": 1}]]},
        "bags": descriptors,
    }, writer)


class TestBoundedMemory:
    def test_distinct_requests_do_not_accumulate(self):
        """A daemon's per-request work on an endless stream of distinct
        wide pairs: decode each frame and check it on a fresh Engine.
        Once warm, retained memory stays flat — nothing process-wide
        keeps the values of requests already answered."""
        rng = random.Random(0xB0B)
        # built on the row path, so no encoder of this process has
        # seen a value before the first frame is decoded
        with columnar.disabled():
            frames = [
                foreign_frame(wide_planted_pair(rng, n_rows=512)[1:])
                for _ in range(200)
            ]
        tracemalloc.start()
        try:
            for i, frame in enumerate(frames):
                header, blob = wire.read_frame(io.BytesIO(frame))
                left, right = wire.decode_jobs_frame(header, blob)["pairs"][0]
                assert Engine().are_consistent(left, right)
                del header, blob, left, right
                if i == 49:
                    gc.collect()
                    warm = tracemalloc.get_traced_memory()[0]
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - warm
        finally:
            tracemalloc.stop()
        assert growth < 1 << 20, f"retained {growth / 2**20:.1f} MiB"
