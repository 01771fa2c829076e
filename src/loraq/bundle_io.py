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
                  fixed order of the chunk plan

The chunks are ``PCOD``/``PSCL`` (residual codes and scales), ``LCOD``/
``LSCL`` and ``RCOD``/``RSCL`` (the two low-rank factors), then ``GAMA``
(the float64 smoothing vector) when the bundle is smoothed.
:meth:`~loraq.pipeline.BundleMeta.tensor_layout` names the packed tensors
in file order; ``_chunk_plan`` maps them to chunks, and both
:func:`save_bundle` and :func:`load_bundle` walk that one plan.  A chunk
table that differs from the plan (reordered, a tag missing, unknown or
repeated) is refused: the version number is the only compatibility gate,
and a later layout comes with a new version.  Packed codes are the
row-major concatenation of per-row byte runs (LSB-first bit packing);
scales are one exponent byte per block for e8m0 and one float16 for
fp16; a passthrough tensor stores its float64 values and no scales.
Loaders validate magic, version and every declared length before
allocating, and round-trips are bit-exact.  The manifest's formats are
:func:`~loraq.formats.make_format` entries, read back by name, so no codec
is built from file data.  A packed tensor or a bundle checks its values
when it is built, and :func:`load_bundle` reports a refusal as
:class:`CorruptFileError` at the tag of the chunk that holds the refused
array, so a loaded bundle decodes to finite values without raising.
:func:`save_bundle` refuses (with :class:`ParameterError`, before the file
is opened) only a manifest that :func:`load_bundle` would refuse.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import (
    CorruptFileError,
    FileFormatError,
    FormatError,
    LoraqError,
    ParameterError,
    UnknownFormatError,
    VersionError,
)
from .formats import QuantizedTensor, json_bool, json_int
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
_TENSOR_HEADER = struct.calcsize("<4sBQQ")  # magic, element kind, rows, cols

# The tag prefix of each packed tensor that BundleMeta.tensor_layout names:
# its codes are chunk prefix + "COD" and its scales chunk prefix + "SCL".
_TAG_PREFIX = {"residual": "P", "left": "L", "right": "R"}
_GAMMA_TAG = "GAMA"


class _Reader:
    """Cursor over a byte string that fails loudly on truncation.

    It reads through a ``memoryview``, so taking a payload copies nothing.
    ``size`` is the length of the whole file when ``data`` holds only its
    head: :meth:`skip` and :meth:`expect_end` count the bytes not held.
    """

    def __init__(self, data: bytes, size: int | None = None):
        self.data = memoryview(data)
        self.size = len(self.data) if size is None else size
        self.offset = 0

    def _advance(self, count: int, what: str, end: int) -> int:
        """The offset of ``count`` bytes that end before ``end``; moves past them."""
        if count < 0 or self.offset + count > end:
            raise CorruptFileError(
                f"truncated while reading {what} at offset {self.offset}",
                offset=self.offset,
            )
        start = self.offset
        self.offset += count
        return start

    def take(self, count: int, what: str) -> memoryview:
        start = self._advance(count, what, len(self.data))
        return self.data[start:self.offset]

    def skip(self, count: int, what: str) -> None:
        """Move past ``count`` bytes of the file, held or not."""
        self._advance(count, what, self.size)

    def unpack(self, fmt: str, what: str) -> int:
        """The one integer of the ``struct`` format ``fmt``."""
        (value,) = struct.unpack(fmt, self.take(struct.calcsize(fmt), what))
        return value

    def expect_end(self, what: str) -> None:
        if self.offset != self.size:
            raise CorruptFileError(
                f"{self.size - self.offset} trailing bytes after {what}",
                offset=self.offset,
            )


def _check_magic(reader: _Reader, magic: bytes, what: str) -> None:
    got = bytes(reader.take(len(magic), f"{what} magic"))
    if got != magic:
        raise FileFormatError(f"bad {what} magic {got!r}, expected {magic!r}")


def save_tensor(path, matrix, kind: str = "f64") -> None:
    """Write a matrix as an LQT1 file.  An ``f32`` file refuses, with
    :class:`ParameterError` and before the file is opened, an entry that
    float32 cannot hold as a finite value."""
    matrix = as_matrix(matrix)
    if kind not in ("f32", "f64"):
        raise FileFormatError(f"element kind must be f32 or f64, got {kind!r}")
    width = 4 if kind == "f32" else 8
    with np.errstate(over="ignore"):  # an overflow is refused below
        payload = np.ascontiguousarray(matrix, dtype=_ELEMENT_KINDS[width])
    if width == 4 and not np.all(np.isfinite(payload)):
        raise ParameterError("matrix holds an entry beyond the float32 range")
    rows, cols = matrix.shape
    with open(path, "wb") as fh:
        fh.write(_TENSOR_MAGIC)
        fh.write(struct.pack("<B", width))
        fh.write(struct.pack("<QQ", rows, cols))
        fh.write(payload.tobytes())


def load_tensor(path) -> np.ndarray:
    """Read an LQT1 file back into a new, writeable float64 matrix.

    The header is read first, and the payload length it declares is checked
    against the file's size before the payload is allocated.  The payload
    is read straight into an array of its own dtype, so an f64 payload is
    held once, as the result; an f32 payload is then cast.
    """
    with open(path, "rb") as fh:
        reader = _Reader(fh.read(_TENSOR_HEADER), size=os.fstat(fh.fileno()).st_size)
        _check_magic(reader, _TENSOR_MAGIC, "tensor")
        width = reader.unpack("<B", "element kind")
        if width not in _ELEMENT_KINDS:
            raise FileFormatError(f"unknown element kind byte {width}")
        dims_offset = reader.offset
        rows = reader.unpack("<Q", "row count")
        cols = reader.unpack("<Q", "column count")
        payload_offset = reader.offset
        length = rows * cols * width
        reader.skip(length, "tensor payload")
        reader.expect_end("tensor payload")
        if max(rows, cols) > np.iinfo(np.intp).max:  # only an empty matrix gets here
            raise CorruptFileError(f"tensor shape {rows}x{cols} is too large",
                                   offset=dims_offset)
        data = np.empty((rows, cols), dtype=_ELEMENT_KINDS[width])
        if fh.readinto(data) != length:  # the file shrank after its size was read
            raise CorruptFileError(
                f"truncated while reading tensor payload at offset {payload_offset}",
                offset=payload_offset)
    return data.astype(np.float64, copy=False)  # f64 payloads are the result


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
    sample_count = reader.unpack("<Q", "sample count")
    length = reader.unpack("<Q", "channel count")
    payload_offset = reader.offset
    payload = reader.take(length * 8, "statistics payload")
    reader.expect_end("statistics payload")
    maxima = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    try:
        return ChannelStats(maxima, sample_count=sample_count)
    except ParameterError as exc:  # a NaN, inf or negative maximum
        raise CorruptFileError(f"statistics payload: {exc}", offset=payload_offset) from exc


def _chunk_plan(meta: BundleMeta, has_gamma: bool) -> list[tuple]:
    """``(tag, what, shape, dtype)`` of every LRQB chunk, in file order.

    Each tensor of :meth:`BundleMeta.tensor_layout` stores its codes, then
    its scales; ``GAMA`` follows when there is a smoothing vector.  A
    tensor's chunks hold the arrays :meth:`FormatSpec.stored_arrays` names,
    at their shapes and dtypes.
    """
    plan = []
    for name, spec, shape in meta.tensor_layout():
        codes, scales = spec.stored_arrays(shape)
        prefix = _TAG_PREFIX[name]
        plan += [(prefix + "COD", "code", *codes), (prefix + "SCL", "scale", *scales)]
    if has_gamma:
        plan.append((_GAMMA_TAG, "gamma", meta.shape[:1], np.dtype("<f8")))
    return plan


def save_bundle(path, bundle: LayerBundle) -> None:
    """Write a layer bundle as an LRQB file; round-trips bit-exactly.  A
    bundle checks its own arrays when it is built, so only a meta that
    :meth:`BundleMeta.from_dict` would refuse is left to refuse: it raises
    :class:`ParameterError` before the file is opened."""
    meta = bundle.meta.to_dict()
    try:
        BundleMeta.from_dict(meta)
    except (LookupError, TypeError, ValueError, LoraqError) as exc:
        raise ParameterError(f"the bundle would not load: {exc}") from exc
    layout, has_gamma = bundle.meta.tensor_layout(), bundle.gamma is not None
    arrays = [array for t in bundle.tensors() for array in (t.codes, t.scales)]
    if has_gamma:
        arrays.append(bundle.gamma)
    chunks = [(tag, np.asarray(array, dtype).tobytes()) for (tag, _, _, dtype), array
              in zip(_chunk_plan(bundle.meta, has_gamma), arrays, strict=True)]
    manifest = {
        "meta": meta,
        "pad": {name: t.pad_count for (name, _, _), t in zip(layout, bundle.tensors())},
        "gamma": has_gamma,
        "chunks": [{"tag": tag, "length": len(data)} for tag, data in chunks],
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_BUNDLE_MAGIC)
        fh.write(struct.pack("<H", BUNDLE_VERSION))
        fh.write(struct.pack("<I", len(manifest_bytes)))
        fh.write(manifest_bytes)
        for tag, data in chunks:
            fh.write(tag.encode("ascii"))
            fh.write(struct.pack("<Q", len(data)))
            fh.write(data)


def load_bundle(path) -> LayerBundle:
    """Read an LRQB file, validating structure before reconstruction.  A
    value that a tensor's or the bundle's constructor refuses is
    :class:`CorruptFileError` at the tag of the chunk that holds it."""
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    _check_magic(reader, _BUNDLE_MAGIC, "bundle")
    version_offset = reader.offset
    version = reader.unpack("<H", "version")
    if version == 0:
        raise CorruptFileError("bundle version 0 does not exist", offset=version_offset)
    if version > BUNDLE_VERSION:
        raise VersionError(
            f"bundle version {version} is newer than supported {BUNDLE_VERSION}"
        )
    manifest_len = reader.unpack("<I", "manifest length")
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
        declared = [(c["tag"], json_int(c["length"], "chunk length"))
                    for c in manifest["chunks"]]
        layout = meta.tensor_layout()
        pads = {name: json_int(pad[name], f"{name} pad") for name, _, _ in layout}
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CorruptFileError(
            f"manifest is missing or mistypes a field: {exc}", offset=manifest_start
        ) from exc
    except (FormatError, UnknownFormatError) as exc:
        raise CorruptFileError(
            f"manifest describes an unusable format: {exc}", offset=manifest_start
        ) from exc
    plan = _chunk_plan(meta, has_gamma)
    tags, planned = [tag for tag, _ in declared], [tag for tag, *_ in plan]
    if tags != planned:
        raise CorruptFileError(f"manifest lists chunks {tags}, expected {planned}",
                               offset=manifest_start)

    arrays = []  # (values, offset of the chunk's tag), in plan order
    for (tag, what, shape, dtype), (_, length) in zip(plan, declared):
        offset = reader.offset
        got_tag = bytes(reader.take(4, "chunk tag"))
        if got_tag != tag.encode("ascii"):
            raise CorruptFileError(
                f"chunk tag {got_tag!r} does not match manifest entry {tag!r}",
                offset=offset,
            )
        got_length = reader.unpack("<Q", f"chunk {tag} length")
        if got_length != length:
            raise CorruptFileError(
                f"chunk {tag} declares {got_length} bytes, manifest says {length}",
                offset=offset,
            )
        payload = reader.take(length, f"chunk {tag} payload")
        expected = math.prod(shape) * dtype.itemsize
        if length != expected:
            raise CorruptFileError(
                f"{what} chunk holds {length} bytes, expected {expected}", offset=offset
            )
        arrays.append((np.frombuffer(payload, dtype=dtype).reshape(shape), offset))
    reader.expect_end("bundle chunks")

    tensors = []
    for (name, spec, shape), (codes, offset), (scales, scales_offset) in zip(
            layout, arrays[0::2], arrays[1::2]):
        try:
            t = QuantizedTensor(shape, spec, codes, scales)
        except FormatError as exc:  # an invalid code pattern
            raise CorruptFileError(f"{name} codes: {exc}", offset=offset) from exc
        except ParameterError as exc:  # a passthrough value or an fp16 scale
            raise CorruptFileError(
                f"{name}: {exc}", offset=offset if spec.is_passthrough else scales_offset
            ) from exc
        if pads[name] != t.pad_count:
            raise CorruptFileError(
                f"pad count {pads[name]} does not match the shape, expected {t.pad_count}",
                offset=offset,
            )
        tensors.append(t)
    gamma, gamma_offset = arrays[-1] if has_gamma else (None, None)
    try:
        return LayerBundle(*tensors, gamma, meta)
    except ParameterError as exc:  # a gamma entry that is not finite and positive
        raise CorruptFileError(str(exc), offset=gamma_offset) from exc
