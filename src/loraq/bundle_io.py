"""Bit-exact file formats for tensors, channel statistics and layer bundles.

All integers are little-endian.  Three containers exist:

``LQT1`` (tensor)::

    magic   4 bytes  b"LQT1"
    kind    u8       4 = float32, 8 = float64 (bytes per element)
    rows    u64
    cols    u64
    payload rows*cols*kind bytes, row-major

``LQS1`` (channel statistics)::

    magic         4 bytes  b"LQS1"
    sample_count  u64
    length        u64
    maxima        length float64 values

``LRQB`` (layer bundle)::

    magic         4 bytes  b"LRQB"
    version       u16
    manifest_len  u32
    manifest      UTF-8 JSON (formats, shapes, rank, seeds, toggles,
                  losses, gamma presence, and the chunk table)
    chunks        tag (4 ASCII bytes) + length u64 + payload, in the
                  order declared by the manifest chunk table

Known chunk tags: ``PCOD``/``PSCL`` residual codes and scales,
``LCOD``/``LSCL`` and ``RCOD``/``RSCL`` for the two low-rank factors,
``GAMA`` for the optional smoothing vector (float64).  Unknown tags
listed in the manifest are skipped, which keeps old readers compatible
with future chunk additions.  Packed codes are the row-major
concatenation of per-row byte runs (LSB-first bit packing); scales are
one byte per block for e8m0 and two bytes (float16 bit pattern) for fp16.
Loaders validate magic, version and every declared length before
allocating, and round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import CorruptFileError, FileFormatError, FormatError, VersionError
from .formats import QuantizedTensor, json_bool, json_int, json_str
from .numerics import as_matrix
from .pipeline import BundleMeta, LayerBundle
from .smoothing import ChannelStats

__all__ = [
    "BUNDLE_VERSION",
    "save_tensor",
    "load_tensor",
    "save_stats",
    "load_stats",
    "save_bundle",
    "load_bundle",
]

BUNDLE_VERSION = 1

_TENSOR_MAGIC = b"LQT1"
_STATS_MAGIC = b"LQS1"
_BUNDLE_MAGIC = b"LRQB"

_ELEMENT_KINDS = {4: "<f4", 8: "<f8"}


class _Reader:
    """Cursor over a byte string that fails loudly on truncation.

    It reads through a ``memoryview``, so taking a payload copies nothing.
    """

    def __init__(self, data: bytes):
        self.data = memoryview(data)
        self.offset = 0

    def take(self, count: int, what: str) -> memoryview:
        if count < 0 or self.offset + count > len(self.data):
            raise CorruptFileError(
                f"truncated while reading {what} at offset {self.offset}",
                offset=self.offset,
            )
        out = self.data[self.offset:self.offset + count]
        self.offset += count
        return out

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def expect_end(self, what: str) -> None:
        if self.offset != len(self.data):
            raise CorruptFileError(
                f"{len(self.data) - self.offset} trailing bytes after {what}",
                offset=self.offset,
            )


def _check_magic(reader: _Reader, magic: bytes, what: str) -> None:
    got = bytes(reader.take(len(magic), f"{what} magic"))
    if got != magic:
        raise FileFormatError(f"bad {what} magic {got!r}, expected {magic!r}")


def save_tensor(path, matrix, kind: str = "f64") -> None:
    """Write a matrix as an LQT1 file."""
    matrix = as_matrix(matrix)
    if kind not in ("f32", "f64"):
        raise FileFormatError(f"element kind must be f32 or f64, got {kind!r}")
    width = 4 if kind == "f32" else 8
    rows, cols = matrix.shape
    with open(path, "wb") as fh:
        fh.write(_TENSOR_MAGIC)
        fh.write(struct.pack("<B", width))
        fh.write(struct.pack("<QQ", rows, cols))
        fh.write(np.ascontiguousarray(matrix, dtype=_ELEMENT_KINDS[width]).tobytes())


def load_tensor(path) -> np.ndarray:
    """Read an LQT1 file back into a float64 matrix."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    _check_magic(reader, _TENSOR_MAGIC, "tensor")
    width = reader.u8("element kind")
    if width not in _ELEMENT_KINDS:
        raise FileFormatError(f"unknown element kind byte {width}")
    rows = reader.u64("row count")
    cols = reader.u64("column count")
    payload = reader.take(rows * cols * width, "tensor payload")
    reader.expect_end("tensor payload")
    data = np.frombuffer(payload, dtype=_ELEMENT_KINDS[width])
    return data.astype(np.float64).reshape(rows, cols)


def save_stats(path, stats: ChannelStats) -> None:
    """Write channel statistics as an LQS1 file."""
    with open(path, "wb") as fh:
        fh.write(_STATS_MAGIC)
        fh.write(struct.pack("<QQ", stats.sample_count, stats.activation_max.size))
        fh.write(np.ascontiguousarray(stats.activation_max, dtype="<f8").tobytes())


def load_stats(path) -> ChannelStats:
    """Read an LQS1 channel-statistics file."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    _check_magic(reader, _STATS_MAGIC, "statistics")
    sample_count = reader.u64("sample count")
    length = reader.u64("channel count")
    payload = reader.take(length * 8, "statistics payload")
    reader.expect_end("statistics payload")
    maxima = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return ChannelStats(maxima, sample_count=sample_count)


def _tensor_chunks(prefix: str, t: QuantizedTensor) -> list[tuple[str, bytes]]:
    return [(prefix + "COD", t.codes.tobytes()), (prefix + "SCL", t.scales.tobytes())]


def save_bundle(path, bundle: LayerBundle) -> None:
    """Write a layer bundle as an LRQB file; round-trips bit-exactly."""
    chunks: list[tuple[str, bytes]] = []
    chunks += _tensor_chunks("P", bundle.residual)
    chunks += _tensor_chunks("L", bundle.lowrank_left)
    chunks += _tensor_chunks("R", bundle.lowrank_right)
    if bundle.gamma is not None:
        chunks.append(("GAMA", np.ascontiguousarray(bundle.gamma, dtype="<f8").tobytes()))
    manifest = {
        "meta": bundle.meta.to_dict(),
        "pad": {
            "residual": bundle.residual.pad_count,
            "left": bundle.lowrank_left.pad_count,
            "right": bundle.lowrank_right.pad_count,
        },
        "gamma": bundle.gamma is not None,
        "chunks": [{"tag": tag, "length": len(data)} for tag, data in chunks],
    }
    manifest_bytes = json.dumps(
        manifest, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_BUNDLE_MAGIC)
        fh.write(struct.pack("<H", BUNDLE_VERSION))
        fh.write(struct.pack("<I", len(manifest_bytes)))
        fh.write(manifest_bytes)
        for tag, data in chunks:
            fh.write(tag.encode("ascii"))
            fh.write(struct.pack("<Q", len(data)))
            fh.write(data)


def _chunk_array(chunk: memoryview, shape: tuple[int, int], dtype: np.dtype,
                 what: str, offset: int) -> np.ndarray:
    """A copy of ``chunk`` as a ``shape`` array of ``dtype``; a chunk of
    another length raises :class:`CorruptFileError` at ``offset``."""
    expected = math.prod(shape) * dtype.itemsize
    if len(chunk) != expected:
        raise CorruptFileError(
            f"{what} chunk holds {len(chunk)} bytes, expected {expected}", offset=offset
        )
    return np.frombuffer(chunk, dtype=dtype).reshape(shape).copy()


def _decode_tensor(spec, shape, chunk_codes: memoryview, chunk_scales: memoryview,
                   pad_count: int, offset: int, scale_offset: int) -> QuantizedTensor:
    codes_shape, scales_shape = spec.stored_shapes(shape)
    codes = _chunk_array(chunk_codes, codes_shape, np.dtype(np.uint8), "code", offset)
    scales = _chunk_array(chunk_scales, scales_shape, spec.scale_dtype, "scale",
                          scale_offset)
    if spec.is_passthrough and not np.all(np.isfinite(codes.view("<f8"))):
        raise CorruptFileError(
            "passthrough payload holds an entry that is not finite", offset=offset
        )
    if spec.scale_kind == "fp16":
        values = scales.view(np.float16)
        if not np.all(np.isfinite(values) & (values > 0)):
            raise CorruptFileError(
                "scale chunk holds a float16 scale that is not finite and positive",
                offset=scale_offset,
            )
    t = QuantizedTensor(shape, spec, codes, scales)
    if pad_count != t.pad_count:
        raise CorruptFileError(
            f"pad count {pad_count} does not match the shape, expected {t.pad_count}",
            offset=offset,
        )
    return t


def load_bundle(path) -> LayerBundle:
    """Read an LRQB file, validating structure before reconstruction."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    _check_magic(reader, _BUNDLE_MAGIC, "bundle")
    version_offset = reader.offset
    version = reader.u16("version")
    if version == 0:
        raise CorruptFileError("bundle version 0 does not exist", offset=version_offset)
    if version > BUNDLE_VERSION:
        raise VersionError(
            f"bundle version {version} is newer than supported {BUNDLE_VERSION}"
        )
    manifest_len = reader.u32("manifest length")
    manifest_start = reader.offset
    manifest_bytes = reader.take(manifest_len, "manifest")
    try:
        manifest = json.loads(str(manifest_bytes, "utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, an integer too long
        raise CorruptFileError(
            f"manifest does not parse: {exc}", offset=manifest_start
        ) from exc

    try:
        meta = BundleMeta.from_dict(manifest["meta"])
        pad = manifest["pad"]
        has_gamma = json_bool(manifest["gamma"], "gamma")
        declared = [(json_str(c["tag"], "chunk tag"),
                     json_int(c["length"], "chunk length")) for c in manifest["chunks"]]
        pad_residual, pad_left, pad_right = (
            json_int(pad[key], f"{key} pad") for key in ("residual", "left", "right")
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CorruptFileError(
            f"manifest is missing or mistypes a field: {exc}", offset=manifest_start
        ) from exc
    except FormatError as exc:
        raise CorruptFileError(
            f"manifest describes an unusable format: {exc}", offset=manifest_start
        ) from exc
    if min(meta.rank, *meta.shape) < 1:
        raise CorruptFileError(
            f"manifest rank {meta.rank} and shape {list(meta.shape)} must be positive",
            offset=manifest_start,
        )

    payloads: dict[str, memoryview] = {}
    offsets: dict[str, int] = {}
    for tag, length in declared:
        chunk_offset = reader.offset
        got_tag = bytes(reader.take(4, "chunk tag"))
        if got_tag != tag.encode("ascii", errors="replace"):
            raise CorruptFileError(
                f"chunk tag {got_tag!r} does not match manifest entry {tag!r}",
                offset=chunk_offset,
            )
        got_length = reader.u64(f"chunk {tag} length")
        if got_length != length:
            raise CorruptFileError(
                f"chunk {tag} declares {got_length} bytes, manifest says {length}",
                offset=chunk_offset,
            )
        payloads[tag] = reader.take(length, f"chunk {tag} payload")
        offsets[tag] = chunk_offset
    reader.expect_end("bundle chunks")

    required = ["PCOD", "PSCL", "LCOD", "LSCL", "RCOD", "RSCL"]
    missing = [tag for tag in required if tag not in payloads]
    if missing:
        raise CorruptFileError(f"bundle is missing chunks: {missing}")
    if has_gamma and "GAMA" not in payloads:
        raise CorruptFileError("manifest promises a gamma chunk but none is present")

    d, n = meta.shape
    residual = _decode_tensor(
        meta.q1, (d, n), payloads["PCOD"], payloads["PSCL"], pad_residual,
        offsets["PCOD"], offsets["PSCL"],
    )
    left = _decode_tensor(
        meta.q2, (d, meta.rank), payloads["LCOD"], payloads["LSCL"], pad_left,
        offsets["LCOD"], offsets["LSCL"],
    )
    right = _decode_tensor(
        meta.q2, (meta.rank, n), payloads["RCOD"], payloads["RSCL"], pad_right,
        offsets["RCOD"], offsets["RSCL"],
    )
    gamma = None
    if has_gamma:
        raw = payloads["GAMA"]
        if len(raw) != d * 8:
            raise CorruptFileError(
                f"gamma chunk holds {len(raw)} bytes, expected {d * 8}",
                offset=offsets["GAMA"],
            )
        gamma = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        if not np.all(np.isfinite(gamma) & (gamma > 0)):
            raise CorruptFileError(
                "gamma chunk holds an entry that is not finite and positive",
                offset=offsets["GAMA"],
            )
    return LayerBundle(residual, left, right, gamma, meta)
