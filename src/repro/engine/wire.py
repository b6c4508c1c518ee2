"""The versioned binary wire format: dictionary-coded columnar frames.

The serve protocol's v1 encoding moves *rows*: a batch payload is one
newline-JSON object whose bags are ``{"schema": ..., "tuples": ...}``
row lists, and the receiving daemon re-validates, re-encodes, and
re-fingerprints every bag from scratch.  This module adds the **v2
frame**: a length-prefixed binary message that ships each bag as dense
int64 *code* arrays plus the per-attribute dictionaries those codes
index, so the receiver adopts the columnar encoding as shipped instead
of re-encoding rows — straight onto the fingerprint-shared
:class:`~repro.engine.index.BagIndex` ``_columnar`` slot, fingerprint
riding along, so the first engine query is a pure
:class:`VerdictStore` probe.

Frame layout (all integers little-endian)::

    MAGIC(4) | version u8 | header_len u32 | blob_len u64
    header: UTF-8 JSON of ``header_len`` bytes
    blob:   ``blob_len`` bytes of packed little-endian int64 arrays

The header of a **jobs frame** is ``{"v": 2, "payload": ..., "bags":
[...]}`` — the payload is the ordinary batch object with every bag slot
replaced by a ``{"$bag": i}`` reference into ``bags`` (``"$bag"`` is
reserved in v2 payloads), and each bag descriptor is either

* inline JSON — ``{"json": <bag dict>, "fp": <fingerprint>}`` — for
  bags below the columnar floor or without an encoding, or
* columnar — ``{"schema": [...], "n": rows, "total": mult_total,
  "fp": <fingerprint>, "mults": [off, len], "cols": [{"codes":
  [off, len], "values": [...]}, ...]}`` — where ``codes`` index the
  column's own dictionary ``values`` (distinct values), or
* a reference — ``{"ref": <fingerprint>}`` — for a bag this connection
  already shipped in full and had answered.  It decodes to a
  :class:`~repro.engine.session.BagRef`, which can only *read* the
  verdict store: a job the store cannot answer raises
  :class:`~repro.engine.session.BagsWanted` and the daemon replies
  ``want`` instead of computing.  Only daemons that advertise
  ``"bag_refs": true`` in their ping reply ever receive one.

Dictionary rule: every encoding owns its dictionaries (see
:mod:`repro.engine.columnar`), so a frame carries the sender's codes and
dictionaries as they are, and the receiver adopts both after bounds,
duplicate-value and duplicate-row checks — decode interns nothing
(equal integers within one frame do share one object, see
:class:`_IntPool`).
Response frames carry ``{"v": 2, "response": {...}}`` and no blob.

The same frame bytes double as the **shared-memory spill** payload of
the process executor (:func:`encode_bag_table` /
:func:`decode_bag_table`): the parent writes one frame into a
``multiprocessing.shared_memory`` segment and workers map it read-only,
decoding only the fingerprints their chunk needs.

Fallback contract: when numpy is absent (``REPRO_NO_NUMPY=1``) the
decoder walks the same blobs with :mod:`array` — results are
bit-identical to the JSON row path, just not adopted as an encoding —
and a peer that never negotiates v2 simply keeps speaking newline JSON.

Counters here (frames and bytes per direction, JSON-line traffic for
comparison, shm segments) are locked :mod:`repro.obs` registry
counters — exact under free threading — surfaced in the historical
flat-dict shape through :func:`repro.engine.columnar.kernel_stats` and
in Prometheus/JSON form through the ``metrics`` serve op.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from typing import TYPE_CHECKING, Callable, Container, Iterable

from .. import io as repro_io
from ..core.bags import Bag
from ..obs import metrics as obs_metrics
from ..core.schema import Schema
from ..errors import ReproError, SchemaError
from . import columnar, fingerprint
from .index import BagIndex
from .session import BagRef

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .columnar import ColumnarBag

__all__ = [
    "MAGIC",
    "MAX_FRAME_BYTES",
    "MAX_HEADER_BYTES",
    "MAX_LINE",
    "VERSION",
    "WireError",
    "decode_bag_table",
    "decode_jobs_frame",
    "encode_bag_table",
    "encode_jobs_frame",
    "encode_response_frame",
    "job_fingerprints",
    "jsonify_payload",
    "payload_has_bags",
    "portable_bag",
    "read_frame",
    "response_from_frame",
    "split_frame",
    "wire_stats",
]

MAGIC = b"RPWF"
VERSION = 2

_PREFIX = struct.Struct("<BIQ")
_PREFIX_LEN = len(MAGIC) + _PREFIX.size

# Defensive ceilings, module attributes so tests can tighten them: a
# malformed or hostile length prefix must not make the server allocate
# without bound, and an unterminated JSON line must not buffer forever.
MAX_HEADER_BYTES = 1 << 26
MAX_FRAME_BYTES = 1 << 31
MAX_LINE = 32 * 1024 * 1024

_JSON_SCALARS = (str, int, float, bool, type(None))


class WireError(ReproError):
    """A malformed, truncated, or oversized wire frame."""


# -- observability ------------------------------------------------------

# Locked registry counters (repro.obs) — the module-level ``+=`` dict
# these replaced was racy under the thread executor.  ``wire_stats``
# keeps the historical flat-dict shape byte-compatible.
_STATS_KEYS = (
    "wire_frames_encoded", "wire_frames_decoded",
    "wire_frame_bytes_encoded", "wire_frame_bytes_decoded",
    "wire_json_requests", "wire_json_bytes",
    "shm_segments_created", "shm_segments_adopted", "shm_bytes_spilled",
)
_COUNTERS = {
    key: obs_metrics.REGISTRY.counter("repro_" + key)
    for key in _STATS_KEYS
}
# Bag references served from the store ("hit") vs answered with a
# ``want`` reply: one labeled counter family, flattened into the
# historical dict as ``wire_bag_ref_hits`` / ``wire_bag_ref_wants``.
_REF_RESULTS = {"hit": "wire_bag_ref_hits", "want": "wire_bag_ref_wants"}
_COUNTERS.update({
    key: obs_metrics.REGISTRY.counter(
        "repro_wire_bag_refs_total", {"result": result}
    )
    for result, key in _REF_RESULTS.items()
})


def wire_stats() -> dict:
    """The process-wide wire/shm counters (merged into
    :func:`repro.engine.columnar.kernel_stats`)."""
    return {key: counter.value for key, counter in _COUNTERS.items()}


def count_json_request(n_bytes: int) -> None:
    """Record one newline-JSON request of ``n_bytes`` — the row-path
    traffic the frame counters are compared against."""
    _COUNTERS["wire_json_requests"].inc()
    _COUNTERS["wire_json_bytes"].inc(n_bytes)


def count_shm(key: str, amount: int = 1) -> None:
    _COUNTERS["shm_" + key].inc(amount)


def count_bag_refs(result: str, amount: int) -> None:
    """Record ``amount`` bag references that were served from the store
    (``result="hit"``) or sent back in a ``want`` reply (``"want"``)."""
    _COUNTERS[_REF_RESULTS[result]].inc(amount)


# -- framing ------------------------------------------------------------


class _BlobWriter:
    """Accumulates blob sections; ``add`` returns the ``[off, len]``
    reference a descriptor embeds."""

    def __init__(self) -> None:
        self.parts: list[bytes] = []
        self.size = 0

    def add(self, data: bytes) -> list[int]:
        ref = [self.size, len(data)]
        self.parts.append(data)
        self.size += len(data)
        return ref

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


def pack_frame(header: dict, writer: _BlobWriter | None = None) -> bytes:
    try:
        header_bytes = json.dumps(
            header, separators=(",", ":")
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireError(f"frame header not JSON-serializable: {exc}") from exc
    blob = writer.getvalue() if writer is not None else b""
    frame = b"".join((
        MAGIC,
        _PREFIX.pack(VERSION, len(header_bytes), len(blob)),
        header_bytes,
        blob,
    ))
    _COUNTERS["wire_frames_encoded"].inc()
    _COUNTERS["wire_frame_bytes_encoded"].inc(len(frame))
    return frame


def _read_exact(stream, n: int, first: bytes = b"") -> bytes:
    chunks = [first]
    remaining = n
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            raise WireError("truncated frame (peer closed mid-frame)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _check_prefix(prefix: bytes) -> tuple[int, int]:
    if prefix[: len(MAGIC)] != MAGIC:
        raise WireError("bad frame magic")
    version, header_len, blob_len = _PREFIX.unpack_from(prefix, len(MAGIC))
    if version != VERSION:
        raise WireError(
            f"unsupported wire version {version} "
            f"(this build speaks {VERSION})"
        )
    if header_len > MAX_HEADER_BYTES:
        raise WireError(f"frame header exceeds {MAX_HEADER_BYTES} bytes")
    if blob_len > MAX_FRAME_BYTES:
        raise WireError(f"frame blob exceeds {MAX_FRAME_BYTES} bytes")
    return header_len, blob_len


class _IntPool(dict):
    """One frame's integer literals, each parsed once: equal ints across
    the frame's dictionaries decode to one shared object (a request's
    bags mostly draw on one domain, and a witness kept in the store
    references values of both sides)."""

    def __missing__(self, literal: str) -> int:
        value = self[literal] = int(literal)
        return value


def _parse_header(header_bytes: bytes) -> dict:
    try:
        header = json.loads(header_bytes, parse_int=_IntPool().__getitem__)
    except json.JSONDecodeError as exc:
        raise WireError(f"invalid JSON in frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise WireError("frame header must be a JSON object")
    return header


def read_frame(stream, first: bytes = b"") -> tuple[dict, bytes]:
    """Read one complete frame off a blocking binary stream; ``first``
    is any already-consumed prefix (protocol sniffing reads one byte).
    Raises :class:`WireError` on truncation or malformation — after
    which the stream is unsynchronized and must be closed."""
    prefix = _read_exact(stream, _PREFIX_LEN - len(first), first)
    header_len, blob_len = _check_prefix(prefix)
    header = _parse_header(_read_exact(stream, header_len))
    blob = _read_exact(stream, blob_len)
    _COUNTERS["wire_frames_decoded"].inc()
    _COUNTERS["wire_frame_bytes_decoded"].inc(_PREFIX_LEN + header_len + blob_len)
    return header, blob


def split_frame(buf) -> tuple[dict, "memoryview"]:
    """Split an in-memory frame (a shared-memory segment's mapped
    bytes) into its header and a zero-copy blob view."""
    view = memoryview(buf)
    if len(view) < _PREFIX_LEN:
        raise WireError("truncated frame buffer")
    header_len, blob_len = _check_prefix(bytes(view[:_PREFIX_LEN]))
    end = _PREFIX_LEN + header_len + blob_len
    if end > len(view):
        raise WireError("truncated frame buffer")
    header = _parse_header(bytes(view[_PREFIX_LEN:_PREFIX_LEN + header_len]))
    _COUNTERS["wire_frames_decoded"].inc()
    _COUNTERS["wire_frame_bytes_decoded"].inc(end)
    return header, view[_PREFIX_LEN + header_len:end]


def encode_response_frame(response: dict) -> bytes:
    return pack_frame({"v": VERSION, "response": response})


def response_from_frame(header: dict) -> dict:
    response = header.get("response")
    if not isinstance(response, dict):
        raise WireError("frame response missing body")
    return response


# -- payload walking ----------------------------------------------------


def _walk_payload(payload: dict, convert: Callable) -> dict:
    """Copy ``payload`` with ``convert`` applied to every bag slot of
    the recognized job shapes; unrecognized shapes pass through for the
    server-side validator to reject with its usual one-line errors."""
    out: dict = {}
    for key, value in payload.items():
        if key == "pairs" and isinstance(value, (list, tuple)):
            entries = []
            for entry in value:
                if isinstance(entry, (list, tuple)) and len(entry) == 2:
                    entries.append([convert(entry[0]), convert(entry[1])])
                else:
                    entries.append(entry)
            out[key] = entries
        elif key == "collections" and isinstance(value, (list, tuple)):
            entries = []
            for entry in value:
                if isinstance(entry, dict) and isinstance(
                    entry.get("bags"), (list, tuple)
                ):
                    converted = dict(entry)
                    converted["bags"] = [
                        convert(bag) for bag in entry["bags"]
                    ]
                    entries.append(converted)
                else:
                    entries.append(entry)
            out[key] = entries
        else:
            out[key] = value
    return out


def job_fingerprints(payload: object) -> list[list[int | None]]:
    """Per job (pair or collection) of ``payload``, the fingerprint of
    each bag slot holding a live :class:`Bag` (``None`` for any other
    slot) — what a client needs to decide which bags may travel as
    references."""
    if not isinstance(payload, dict):
        return []
    jobs: list[list[int | None]] = []
    for key in ("pairs", "collections"):
        entries = payload.get(key)
        if not isinstance(entries, (list, tuple)):
            continue
        for entry in entries:
            if key == "collections":
                entry = entry.get("bags") if isinstance(entry, dict) else None
            if isinstance(entry, (list, tuple)):
                jobs.append([
                    fingerprint.of_bag(slot) if isinstance(slot, Bag)
                    else None
                    for slot in entry
                ])
    return jobs


def payload_has_bags(payload: object) -> bool:
    """True when any bag slot of ``payload`` holds a live :class:`Bag`
    object (the case the v2 frame accelerates)."""
    if not isinstance(payload, dict):
        return False
    found = False

    def probe(obj):
        nonlocal found
        found = found or isinstance(obj, Bag)
        return obj

    _walk_payload(payload, probe)
    return found


def jsonify_payload(payload: object) -> object:
    """``payload`` with every :class:`Bag` object replaced by its JSON
    row encoding — the v1 newline protocol ships dicts only."""
    if not isinstance(payload, dict):
        return payload

    def convert(obj):
        return repro_io.bag_to_dict(obj) if isinstance(obj, Bag) else obj

    return _walk_payload(payload, convert)


# -- bag export ---------------------------------------------------------


def portable_bag(bag: Bag) -> "ColumnarBag | None":
    """The bag's columnar encoding when it has (or earns) one and every
    dictionary value is a JSON scalar, else ``None`` — the caller falls
    back to inline JSON (socket) or pickle (executor)."""
    if not columnar.enabled():
        return None
    encoded = columnar.of_index(BagIndex.of(bag))
    if encoded is None or not all(
        isinstance(value, _JSON_SCALARS)
        for values in encoded.dicts for value in values
    ):
        return None
    return encoded


def _le_bytes(arr) -> bytes:
    return arr.astype("<i8", copy=False).tobytes()


def _columnar_descriptor(
    fp: int, encoded: "ColumnarBag", writer: _BlobWriter
) -> dict:
    return {
        "schema": list(encoded.attrs),
        "n": len(encoded.rows),
        "total": encoded.total,
        "fp": fp,
        "mults": writer.add(_le_bytes(encoded.mults)),
        "cols": [
            {"codes": writer.add(_le_bytes(codes)), "values": values}
            for codes, values in zip(encoded.cols, encoded.dicts)
        ],
    }


def _export_bag(bag: Bag, fp: int, writer: _BlobWriter) -> dict:
    encoded = portable_bag(bag)
    if encoded is None:
        return {"json": repro_io.bag_to_dict(bag), "fp": fp}
    return _columnar_descriptor(fp, encoded, writer)


def encode_jobs_frame(
    payload: dict, refs: "Container[int]" = frozenset()
) -> bytes:
    """One batch payload (bag slots may hold :class:`Bag` objects or
    plain JSON dicts) as one v2 frame.  Bag objects are deduplicated by
    content fingerprint — a bag appearing in many pairs ships once —
    and a bag whose fingerprint is in ``refs`` ships as a ``{"ref": fp}``
    descriptor (its 128-bit fingerprint) instead of its contents."""
    if not isinstance(payload, dict):
        raise WireError("jobs payload must be a JSON object")
    writer = _BlobWriter()
    descriptors: list = []
    by_fp: dict[int, int] = {}

    def convert(obj):
        if isinstance(obj, Bag):
            fp = fingerprint.of_bag(obj)
            index = by_fp.get(fp)
            if index is None:
                index = len(descriptors)
                descriptors.append(
                    {"ref": fp} if fp in refs
                    else _export_bag(obj, fp, writer)
                )
                by_fp[fp] = index
            return {"$bag": index}
        if isinstance(obj, dict):
            descriptors.append({"json": obj})
            return {"$bag": len(descriptors) - 1}
        return obj

    out_payload = _walk_payload(payload, convert)
    header = {"v": VERSION, "payload": out_payload}
    if descriptors:
        header["bags"] = descriptors
    return pack_frame(header, writer)


# -- bag import ---------------------------------------------------------


def _check_fp(fp: object) -> int:
    if isinstance(fp, bool) or not isinstance(fp, int) \
            or not 0 <= fp < (1 << 128):
        raise WireError(f"bad bag fingerprint in frame: {fp!r}")
    return fp


def _blob_slice(blob, ref: object, expected: int) -> "memoryview":
    view = blob if isinstance(blob, memoryview) else memoryview(blob)
    try:
        off, length = ref
    except (TypeError, ValueError):
        raise WireError(f"bad blob reference in frame: {ref!r}") from None
    if (
        isinstance(off, bool) or isinstance(length, bool)
        or not isinstance(off, int) or not isinstance(length, int)
        or off < 0 or length != expected or off + length > len(view)
    ):
        raise WireError(
            f"blob reference {ref!r} outside frame "
            f"(expected {expected} bytes in {len(view)})"
        )
    return view[off:off + length]


def _int64_list(buf, n: int) -> array:
    arr = array("q")
    arr.frombytes(bytes(buf))
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        arr.byteswap()
    if len(arr) != n:
        raise WireError("int64 column length mismatch")
    return arr


def _decode_rows_python(attrs, n, mults_buf, columns):
    """The numpy-less decode: same blobs, plain :mod:`array` walk —
    bit-identical rows, no encoding to adopt."""
    mults = _int64_list(mults_buf, n)
    if any(mult <= 0 for mult in mults):
        raise WireError("non-positive multiplicity in frame")
    decoded_cols = []
    for codes_buf, values in columns:
        codes = _int64_list(codes_buf, n)
        bound = len(values)
        col = []
        for code in codes:
            if not 0 <= code < bound:
                raise WireError("dictionary code out of range in frame")
            col.append(values[code])
        decoded_cols.append(col)
    rows = list(zip(*decoded_cols)) if attrs else [()] * n
    return rows, mults.tolist()


def _bag_from_descriptor(desc: object, blob) -> Bag:
    if not isinstance(desc, dict):
        raise WireError(f"bad bag descriptor in frame: {desc!r}")
    if "json" in desc:
        try:
            bag = repro_io.bag_from_dict(desc["json"])
        except SchemaError as exc:
            raise WireError(f"bad inline bag in frame: {exc}") from exc
        fp = desc.get("fp")
        if fp is not None:
            fingerprint.seed(bag, _check_fp(fp))
        return bag
    try:
        attrs, n, total = desc["schema"], desc["n"], desc["total"]
        fp, mult_ref, col_descs = desc["fp"], desc["mults"], desc["cols"]
    except KeyError as exc:
        raise WireError(f"bag descriptor missing {exc}") from exc
    fp = _check_fp(fp)
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise WireError(f"bad row count in frame: {n!r}")
    if not isinstance(attrs, list) or not isinstance(col_descs, list) \
            or len(col_descs) != len(attrs):
        raise WireError("bag descriptor schema/column mismatch")
    try:
        schema = Schema(attrs)
    except SchemaError as exc:
        raise WireError(f"bad schema in frame: {exc}") from exc
    mults_buf = _blob_slice(blob, mult_ref, 8 * n)
    columns = []
    for col in col_descs:
        if not isinstance(col, dict) or not isinstance(
            col.get("values"), list
        ):
            raise WireError(f"bad column descriptor in frame: {col!r}")
        values = col["values"]
        try:
            distinct = len(set(values))
        except TypeError as exc:
            raise WireError(
                f"unhashable value in frame dictionary: {exc}"
            ) from exc
        if distinct != len(values):
            # equal values under two codes would split one group in two
            raise WireError("repeated value in frame dictionary")
        columns.append((_blob_slice(blob, col.get("codes"), 8 * n), values))
    try:
        if columnar.enabled():
            rows, mults, encoded = columnar.import_encoding(
                schema.attrs, n, mults_buf, columns
            )
        else:
            rows, mults = _decode_rows_python(
                schema.attrs, n, mults_buf, columns
            )
            encoded = None
    except ValueError as exc:
        raise WireError(f"bad columnar bag in frame: {exc}") from exc
    try:
        table = dict(zip(rows, mults))
    except TypeError as exc:
        raise WireError(f"unhashable value in frame column: {exc}") from exc
    if len(table) != n:
        raise WireError("duplicate rows in columnar bag frame")
    if sum(mults) != total:
        raise WireError("multiplicity total mismatch in frame")
    bag = Bag._from_clean(schema, table)
    # Seed first, adopt second: seeding may swap the bag onto a shared
    # value-equal index, and the encoding must land on *that* index.
    fingerprint.seed_with_encoding(bag, fp, encoded)
    return bag


def decode_jobs_frame(header: dict, blob) -> dict:
    """A jobs frame back into the plain batch payload shape, every
    ``{"$bag": i}`` reference replaced by a rebuilt (seeded, possibly
    encoding-adopting) :class:`Bag` — or, for a ``{"ref": fp}``
    descriptor, a :class:`BagRef` — ready for ``parse_jobs``."""
    version = header.get("v")
    if version != VERSION:
        raise WireError(f"unsupported frame header version {version!r}")
    payload = header.get("payload")
    if not isinstance(payload, dict):
        raise WireError("jobs frame missing payload object")
    descriptors = header.get("bags") or []
    if not isinstance(descriptors, list):
        raise WireError("jobs frame bags must be a list")
    bags = [
        BagRef(_check_fp(desc["ref"]))
        if isinstance(desc, dict) and set(desc) == {"ref"}
        else _bag_from_descriptor(desc, blob)
        for desc in descriptors
    ]

    def convert(obj):
        if isinstance(obj, dict) and set(obj) == {"$bag"}:
            index = obj["$bag"]
            if isinstance(index, bool) or not isinstance(index, int) \
                    or not 0 <= index < len(bags):
                raise WireError(f"bad bag reference in frame: {obj!r}")
            return bags[index]
        return obj

    return _walk_payload(payload, convert)


# -- the shared-memory spill payload ------------------------------------


def encode_bag_table(entries: Iterable[tuple[int, "ColumnarBag"]]) -> bytes:
    """``(fingerprint, encoding)`` pairs as one frame — the process
    executor's shared-memory spill body (no jobs ride along)."""
    writer = _BlobWriter()
    descriptors = [
        _columnar_descriptor(fp, encoded, writer) for fp, encoded in entries
    ]
    return pack_frame({"v": VERSION, "bags": descriptors}, writer)


def decode_bag_table(buf, only: "set[int] | None" = None) -> dict[int, Bag]:
    """Rebuild the bags of a spill frame, keyed by fingerprint.
    ``only`` restricts decoding to the fingerprints a worker's chunk
    actually references (the rest are skipped unread)."""
    header, blob = split_frame(buf)
    descriptors = header.get("bags") or []
    if not isinstance(descriptors, list):
        raise WireError("spill frame bags must be a list")
    table: dict[int, Bag] = {}
    for desc in descriptors:
        if not isinstance(desc, dict):
            raise WireError(f"bad bag descriptor in frame: {desc!r}")
        fp = _check_fp(desc.get("fp"))
        if only is not None and fp not in only:
            continue
        table[fp] = _bag_from_descriptor(desc, blob)
    return table
