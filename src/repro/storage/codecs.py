"""Lightweight columnar compression codecs for the tiered store.

Three classic database codecs — run-length encoding, dictionary
encoding, and frame-of-reference bit-packing — plus a ``plain``
passthrough.  All of them operate on the column's *bit pattern* (an
unsigned view of the same item size), which makes the round trip
bit-exact for every dtype including floats with NaNs: two values are a
"run" or share a dictionary slot iff their bit patterns are identical,
and frame-of-reference arithmetic over unsigned bit patterns restores
them exactly.

Encode/decode are *simulated kernels*: :func:`encode_cost` and
:func:`decode_cost` describe the work to the device's roofline model so
the virtual clock pays for compression exactly like it pays for any
other operator.  Decompression reads the compressed bytes and writes the
raw bytes, so a high-ratio column decodes in close to ``raw /
dram_bandwidth`` — the on-device half of the "compression raises
effective interconnect bandwidth" argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.gpu.kernel import KernelCost

#: Fixed per-encoded-column metadata footprint (codec tag, dtype, row
#: count, payload widths) charged against every codec including plain —
#: so "compressed never exceeds raw + header" is a meaningful invariant.
HEADER_BYTES = 32

#: Codec names, in chooser preference order for size ties.
CODECS = ("plain", "rle", "dict", "bitpack")

_UINT_BY_ITEMSIZE = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _bit_view(values: np.ndarray) -> np.ndarray:
    """The column reinterpreted as unsigned integers of the same width.

    Bitwise equality over this view is exact for every dtype (NaN == NaN
    at the bit level), which is what run detection and dictionary
    building need.
    """
    dtype = _UINT_BY_ITEMSIZE.get(values.dtype.itemsize)
    if dtype is None:
        raise ValueError(f"unsupported item size: {values.dtype}")
    return np.ascontiguousarray(values).view(dtype)


#: One little-endian 64-bit word of a bit stream.
_WORD = np.dtype("<u8")


def _pack_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Pack ``values`` (non-negative uint64, all < 2**width) into a
    little-endian ``width``-bit stream stored as uint8.

    The stream is ``ceil(len(values) * width / 8)`` bytes with zero pad
    bits: value ``i`` occupies bits ``[i * width, (i + 1) * width)``.
    Values 8 apart start ``width`` bytes apart at the same bit shift, so
    each of the 8 phases shifts its values into 64-bit words once and
    ORs the words' bytes into ``width``-strided byte lanes; a value
    spanning nine bytes (``shift + width > 64``) ORs its top bits into
    a ninth lane.
    """
    count = values.size
    out = np.zeros((count * width + 7) // 8, dtype=np.uint8)
    if out.size == 0:
        return out
    for phase in range(min(8, count)):
        start, shift = divmod(phase * width, 8)
        phase_values = values[phase::8]
        words = np.left_shift(phase_values, np.uint64(shift), dtype=_WORD)
        word_bytes = words.view(np.uint8).reshape(-1, 8)
        stop = start + (len(phase_values) - 1) * width + 1
        lanes = (shift + width + 7) // 8
        for lane in range(min(lanes, 8)):
            dst = out[start + lane:stop + lane:width]
            np.bitwise_or(dst, word_bytes[:, lane], out=dst)
        if lanes > 8:
            dst = out[start + 8:stop + 8:width]
            top = np.right_shift(phase_values, np.uint64(64 - shift))
            np.bitwise_or(dst, top.astype(np.uint8), out=dst)
    return out


def _unpack_bits(packed: np.ndarray, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_bits`: recover ``count`` uint64 values.

    Bytes past the first ``ceil(count * width / 8)`` are ignored.  Each
    group of 8 values fills ``width`` bytes (so a stream may also be
    unpacked from the start of any group), and value ``p`` of a group
    starts at byte ``p * width // 8`` of it, bit ``p * width % 8``.  So
    over the zero-padded stream, phase ``p`` (values ``p``, ``p + 8``,
    ...) is one ``width``-strided view of overlapping little-endian
    8-byte windows: all 8 phases are columns of one 2-D view, gathered,
    shifted and masked in one pass each.  Where ``shift + width > 64``
    the window's ninth byte supplies the top bits.
    """
    if width == 0 or count == 0:
        return np.zeros(count, dtype=np.uint64)
    groups = (count + 7) // 8
    starts = [phase * width // 8 for phase in range(8)]
    shifts = [phase * width % 8 for phase in range(8)]
    span = starts[-1] + 9
    nbytes = (count * width + 7) // 8
    padded = np.zeros(groups * width + span, dtype=np.uint8)
    used = min(nbytes, len(packed))
    padded[:used] = packed[:used]
    windows = np.ndarray((groups, span - 8), _WORD, padded, 0, (width, 1))
    values = windows[:, starts]
    values >>= np.array(shifts, dtype=np.uint64)
    wide = [phase for phase in range(8) if shifts[phase] + width > 64]
    if wide:
        tail = np.ndarray((groups, span), np.uint8, padded, 0, (width, 1))
        top = tail[:, [starts[phase] + 8 for phase in wide]]
        top = top.astype(np.uint64) << np.array(
            [64 - shifts[phase] for phase in wide], dtype=np.uint64
        )
        values[:, wide] |= top
    values &= np.uint64((1 << width) - 1)
    return values.reshape(-1)[:count]


def _unpack_range(
    packed: np.ndarray, width: int, lo: int, hi: int
) -> np.ndarray:
    """Values ``[lo, hi)`` of a packed stream, unpacked from the last
    multiple of 8 at or below ``lo`` (a byte boundary of the stream)."""
    first = lo - lo % 8
    values = _unpack_bits(packed[first // 8 * width:], hi - first, width)
    return values[lo - first:]


@dataclass(frozen=True)
class EncodedColumn:
    """One column (or row-chunk of a column) in compressed form.

    ``payload`` holds the codec's arrays; what each slot means is
    codec-specific (documented on the encoder).  ``width`` is the packed
    bit width (dict codes / bitpack deltas); ``base`` the bitpack
    frame-of-reference, as the raw unsigned bit pattern.
    """

    codec: str
    n: int
    dtype: np.dtype
    payload: Tuple[np.ndarray, ...]
    width: int = 0
    base: int = 0

    @property
    def raw_nbytes(self) -> int:
        """Decoded size in bytes."""
        return self.n * self.dtype.itemsize

    @cached_property
    def compressed_nbytes(self) -> int:
        """Stored size in bytes, header included (the payload is never
        written, so it is computed once)."""
        return HEADER_BYTES + sum(int(a.nbytes) for a in self.payload)

    @property
    def ratio(self) -> float:
        """Compression ratio raw/compressed (<= 1.0 means it grew)."""
        return self.raw_nbytes / max(self.compressed_nbytes, 1)


def encode_plain(values: np.ndarray) -> EncodedColumn:
    """Passthrough: payload = (copy of the raw values,)."""
    return EncodedColumn(
        codec="plain", n=len(values), dtype=values.dtype,
        payload=(np.array(values, copy=True),),
    )


def encode_rle(values: np.ndarray) -> EncodedColumn:
    """Run-length: payload = (run values, int32 run lengths)."""
    n = len(values)
    if n == 0:
        return EncodedColumn(
            codec="rle", n=0, dtype=values.dtype,
            payload=(values[:0].copy(), np.empty(0, dtype=np.int32)),
        )
    bits = _bit_view(values)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    lengths = np.diff(np.append(starts, n)).astype(np.int32)
    return EncodedColumn(
        codec="rle", n=n, dtype=values.dtype,
        payload=(np.array(values[starts], copy=True), lengths),
    )


def encode_dict(values: np.ndarray) -> EncodedColumn:
    """Dictionary: payload = (unique values, bit-packed codes)."""
    n = len(values)
    if n == 0:
        return EncodedColumn(
            codec="dict", n=0, dtype=values.dtype,
            payload=(values[:0].copy(), np.empty(0, dtype=np.uint8)),
        )
    bits = _bit_view(values)
    uniques, codes = np.unique(bits, return_inverse=True)
    width = max(int(len(uniques) - 1).bit_length(), 0)
    packed = _pack_bits(codes.astype(np.uint64), width)
    return EncodedColumn(
        codec="dict", n=n, dtype=values.dtype,
        payload=(uniques.view(values.dtype).copy(), packed),
        width=width,
    )


def encode_bitpack(values: np.ndarray) -> EncodedColumn:
    """Frame-of-reference bit-packing over the unsigned bit patterns:
    payload = (packed deltas,), ``base`` = min bit pattern."""
    n = len(values)
    if n == 0:
        return EncodedColumn(
            codec="bitpack", n=0, dtype=values.dtype,
            payload=(np.empty(0, dtype=np.uint8),),
        )
    bits = _bit_view(values).astype(np.uint64)
    base = int(bits.min())
    deltas = bits - np.uint64(base)
    width = int(deltas.max()).bit_length()
    packed = _pack_bits(deltas, width)
    return EncodedColumn(
        codec="bitpack", n=n, dtype=values.dtype,
        payload=(packed,), width=width, base=base,
    )


_ENCODERS = {
    "plain": encode_plain,
    "rle": encode_rle,
    "dict": encode_dict,
    "bitpack": encode_bitpack,
}


def encode(values: np.ndarray, codec: str) -> EncodedColumn:
    """Encode with a named codec."""
    try:
        encoder = _ENCODERS[codec]
    except KeyError:
        known = ", ".join(CODECS)
        raise ValueError(f"unknown codec {codec!r}; known: {known}")
    return encoder(values)


def decode(
    encoded: EncodedColumn, lo: int = 0, hi: Optional[int] = None
) -> np.ndarray:
    """Rows ``[lo, hi)`` (default: all) of the column ``encoded`` holds;
    the exact inverse of :func:`encode` for every codec.

    Each returned row is written once, and only the requested rows are
    decoded.  ``plain`` returns a copy: callers may hand out writable
    mirrors of the result.
    """
    dtype = encoded.dtype
    hi = encoded.n if hi is None else hi
    if hi <= lo:
        return np.empty(0, dtype=dtype)
    if encoded.codec == "plain":
        return encoded.payload[0][lo:hi].copy()
    if encoded.codec == "rle":
        run_values, lengths = encoded.payload
        ends = np.cumsum(lengths, dtype=np.int64)
        first = int(np.searchsorted(ends, lo, side="right"))
        last = int(np.searchsorted(ends, hi - 1, side="right"))
        counts = lengths[first:last + 1].astype(np.int64)
        counts[0] -= lo - (ends[first] - lengths[first])
        counts[-1] -= ends[last] - hi
        return np.repeat(run_values[first:last + 1], counts)
    if encoded.codec == "dict":
        uniques, packed = encoded.payload
        codes = _unpack_range(packed, encoded.width, lo, hi)
        # Codes index a dictionary of at most n entries, so they are
        # valid as signed indices.
        return uniques[codes.view(np.intp)]
    if encoded.codec == "bitpack":
        bits = _unpack_range(encoded.payload[0], encoded.width, lo, hi)
        bits += np.uint64(encoded.base)
        uint = _UINT_BY_ITEMSIZE[dtype.itemsize]
        return bits.astype(uint, copy=False).view(dtype)
    raise ValueError(f"unknown codec {encoded.codec!r}")


#: Rough compute intensity per element by codec (shift/mask/gather work),
#: used to price the simulated encode/decode kernels.
_DECODE_FLOPS = {"plain": 0.0, "rle": 2.0, "dict": 3.0, "bitpack": 4.0}
_ENCODE_PASSES = {"plain": 1, "rle": 2, "dict": 3, "bitpack": 2}


def encode_cost(encoded: EncodedColumn) -> KernelCost:
    """Kernel cost of producing ``encoded`` from the raw column."""
    n = max(encoded.n, 1)
    return KernelCost(
        name=f"storage::encode_{encoded.codec}",
        elements=encoded.n,
        flops_per_element=_DECODE_FLOPS[encoded.codec] + 1.0,
        bytes_read_per_element=float(encoded.dtype.itemsize),
        bytes_written_per_element=encoded.compressed_nbytes / n,
        fixed_bytes=HEADER_BYTES,
        passes=_ENCODE_PASSES[encoded.codec],
    )


def decode_cost(encoded: EncodedColumn) -> KernelCost:
    """Kernel cost of decompressing ``encoded`` back to raw values.

    Reads the compressed bytes, writes the raw bytes: the memory-bound
    roofline makes high-ratio columns decode at a fraction of the raw
    scan cost, which is what tier promotion amortises against.
    """
    n = max(encoded.n, 1)
    return KernelCost(
        name=f"storage::decode_{encoded.codec}",
        elements=encoded.n,
        flops_per_element=_DECODE_FLOPS[encoded.codec],
        bytes_read_per_element=encoded.compressed_nbytes / n,
        bytes_written_per_element=float(encoded.dtype.itemsize),
        fixed_bytes=HEADER_BYTES,
    )


def batch_decode_cost(columns: Sequence[EncodedColumn]) -> KernelCost:
    """One kernel decompressing several chunks back-to-back.

    A fetch decodes all its covering chunks in a single batched launch —
    the per-launch fixed cost is paid once, which is what keeps small
    store chunks viable.  The cost is the aggregate of the per-chunk
    decode work, at the compute intensity of the heaviest codec present.
    """
    n = max(sum(e.n for e in columns), 1)
    compressed = sum(e.compressed_nbytes for e in columns)
    raw = sum(e.raw_nbytes for e in columns)
    flops = max((_DECODE_FLOPS[e.codec] for e in columns), default=0.0)
    return KernelCost(
        name="storage::decode_batch",
        elements=sum(e.n for e in columns),
        flops_per_element=flops,
        bytes_read_per_element=compressed / n,
        bytes_written_per_element=raw / n,
        fixed_bytes=HEADER_BYTES,
    )


def codec_summary(encoded: EncodedColumn) -> Dict[str, object]:
    """Small JSON-friendly description (benchmarks, serve metrics)."""
    return {
        "codec": encoded.codec,
        "rows": encoded.n,
        "raw_bytes": encoded.raw_nbytes,
        "compressed_bytes": encoded.compressed_nbytes,
        "ratio": round(encoded.ratio, 3),
    }
