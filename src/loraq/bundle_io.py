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
import struct

import numpy as np

from .errors import CorruptFileError, FileFormatError, VersionError
from .formats import QuantizedTensor
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
    """Cursor over a byte string that fails loudly on truncation."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, count: int, what: str) -> bytes:
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
    got = reader.take(len(magic), f"{what} magic")
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
    codes = np.ascontiguousarray(t.codes, dtype=np.uint8).tobytes()
    if t.spec.scale_kind == "fp16":
        scales = np.ascontiguousarray(t.scales, dtype="<u2").tobytes()
    else:
        scales = np.ascontiguousarray(t.scales, dtype=np.uint8).tobytes()
    return [(prefix + "COD", codes), (prefix + "SCL", scales)]


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


def _decode_tensor(spec, shape, chunk_codes: bytes, chunk_scales: bytes,
                   pad_count: int, offset: int, scale_offset: int) -> QuantizedTensor:
    rows, cols = shape
    if spec.is_passthrough:
        expected_codes = rows * cols * 8
        n_blocks = 0
        scale_dtype = "<u2"
        expected_scales = 0
        expected_pad = 0
    else:
        n_blocks = -(-cols // spec.block_size)
        padded = n_blocks * spec.block_size
        expected_codes = rows * (-(-(padded * spec.codec.width) // 8))
        scale_dtype = "<u2" if spec.scale_kind == "fp16" else "u1"
        expected_scales = rows * n_blocks * (2 if spec.scale_kind == "fp16" else 1)
        expected_pad = padded - cols
    if len(chunk_codes) != expected_codes:
        raise CorruptFileError(
            f"code chunk holds {len(chunk_codes)} bytes, expected {expected_codes}",
            offset=offset,
        )
    if len(chunk_scales) != expected_scales:
        raise CorruptFileError(
            f"scale chunk holds {len(chunk_scales)} bytes, expected {expected_scales}",
            offset=scale_offset,
        )
    codes = np.frombuffer(chunk_codes, dtype=np.uint8).reshape(rows, -1).copy()
    scales = np.frombuffer(chunk_scales, dtype=scale_dtype).reshape(rows, n_blocks).copy()
    if spec.scale_kind == "fp16":
        values = scales.view(np.float16)
        if not np.all(np.isfinite(values) & (values > 0)):
            raise CorruptFileError(
                "scale chunk holds a float16 scale that is not finite and positive",
                offset=scale_offset,
            )
    if pad_count != expected_pad:
        raise CorruptFileError(
            f"pad count {pad_count} does not match the shape, expected {expected_pad}",
            offset=offset,
        )
    return QuantizedTensor(
        shape=(rows, cols), spec=spec, codes=codes, scales=scales, pad_count=pad_count
    )


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
        manifest = json.loads(manifest_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptFileError(
            f"manifest does not parse: {exc}", offset=manifest_start
        ) from exc

    try:
        meta = BundleMeta.from_dict(manifest["meta"])
        pad = manifest["pad"]
        has_gamma = bool(manifest["gamma"])
        chunk_table = manifest["chunks"]
        declared = [(str(c["tag"]), int(c["length"])) for c in chunk_table]
        pad_residual = int(pad["residual"])
        pad_left = int(pad["left"])
        pad_right = int(pad["right"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFileError(
            f"manifest is missing or mistypes a field: {exc}", offset=manifest_start
        ) from exc

    payloads: dict[str, bytes] = {}
    offsets: dict[str, int] = {}
    for tag, length in declared:
        chunk_offset = reader.offset
        got_tag = reader.take(4, "chunk tag")
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
