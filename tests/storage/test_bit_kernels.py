"""The word-level bit-stream kernels against the bit-matrix reference.

Compressed sizes price every PCIe and NVMe leg of the tiered store, so
the packed format is fixed: ``_pack_bits`` must emit exactly the stream
the original bit-matrix kernel (kept below as the reference) emitted,
``_unpack_bits`` must read any stream as that kernel did, and a range
decode must equal the full decode sliced.  The SF 0.01 catalog's codec
picks, compressed sizes and payload digests were recorded with the
reference kernels and pin the whole ingest path.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu import Device
from repro.storage import CODECS, TieredColumnStore, decode, encode
from repro.storage.codecs import _pack_bits, _unpack_bits
from repro.tpch import TpchGenerator

WIDTHS = range(65)
COUNTS = (0, 1, 7, 8, 9, 8191, 8192, 8193)


def reference_pack(values: np.ndarray, width: int) -> np.ndarray:
    """One uint8 per bit, packed little-endian by ``np.packbits``."""
    if width == 0 or values.size == 0:
        return np.empty(0, dtype=np.uint8)
    shifts = np.arange(width, dtype=np.uint64)
    bits = (values[:, None] >> shifts) & np.uint64(1)
    return np.packbits(bits.astype(np.uint8), bitorder="little")


def reference_unpack(packed: np.ndarray, count: int, width: int) -> np.ndarray:
    """One uint64 per bit, summed along the width axis."""
    if width == 0 or count == 0:
        return np.zeros(count, dtype=np.uint64)
    bits = np.unpackbits(packed, count=count * width, bitorder="little")
    bits = bits.reshape(count, width).astype(np.uint64)
    shifts = np.arange(width, dtype=np.uint64)
    return (bits << shifts).sum(axis=1, dtype=np.uint64)


def _values(rng, count: int, width: int) -> np.ndarray:
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    return rng.integers(0, (1 << width) - 1, count, dtype=np.uint64,
                        endpoint=True)


def _assert_pack_matches(values: np.ndarray, width: int) -> None:
    packed = _pack_bits(values, width)
    expected = reference_pack(values, width)
    assert packed.dtype == np.uint8
    assert len(packed) == (values.size * width + 7) // 8
    assert packed.tobytes() == expected.tobytes()
    unpacked = _unpack_bits(packed, values.size, width)
    assert unpacked.dtype == np.uint64
    assert np.array_equal(unpacked, values)


class TestKernelsAgainstReference:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_every_width_and_count(self, width):
        rng = np.random.default_rng(width)
        all_ones = np.uint64((1 << width) - 1)
        for count in COUNTS:
            _assert_pack_matches(_values(rng, count, width), width)
            _assert_pack_matches(np.full(count, all_ones), width)
            # Any stream unpacks as the reference reads it, trailing
            # bytes beyond ceil(count * width / 8) included.
            stream = rng.integers(0, 256, (count * width + 7) // 8 + 5,
                                  dtype=np.uint8)
            assert np.array_equal(_unpack_bits(stream, count, width),
                                  reference_unpack(stream, count, width))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_widths_counts_and_streams(self, data):
        width = data.draw(st.integers(0, 64), label="width")
        values = data.draw(st.lists(
            st.one_of(st.integers(0, (1 << width) - 1),
                      st.just((1 << width) - 1)),
            max_size=70,
        ), label="values")
        _assert_pack_matches(np.array(values, dtype=np.uint64), width)
        count = data.draw(st.integers(0, 70), label="count")
        stream = np.frombuffer(data.draw(st.binary(
            min_size=(count * width + 7) // 8,
            max_size=(count * width + 7) // 8 + 9,
        ), label="stream"), dtype=np.uint8)
        assert np.array_equal(_unpack_bits(stream, count, width),
                              reference_unpack(stream, count, width))


def _column(rng, dtype, n: int) -> np.ndarray:
    """Runs, repeats and outliers, so every codec has work to do."""
    values = np.repeat(rng.integers(-40, 40, n // 5 + 1), 5)[:n]
    values[::11] = rng.integers(-1000, 1000, len(values[::11]))
    return values.astype(dtype)


class TestRangeDecode:
    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize(
        "dtype", [np.int64, np.float64, np.int32, np.uint16, np.uint8]
    )
    def test_range_equals_full_decode_sliced(self, codec, dtype):
        rng = np.random.default_rng(3)
        for n in (0, 1, 9, 40):
            encoded = encode(_column(rng, dtype, n), codec)
            full = decode(encoded)
            for lo in range(n + 1):
                for hi in range(lo, n + 1):
                    part = decode(encoded, lo, hi)
                    assert part.dtype == full.dtype
                    assert part.tobytes() == full[lo:hi].tobytes()

    @pytest.mark.parametrize("codec", CODECS)
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_range_on_full_chunks(self, codec, data):
        n = data.draw(st.sampled_from([8191, 8192, 8193]), label="n")
        lo = data.draw(st.integers(0, n), label="lo")
        hi = data.draw(st.integers(lo, n), label="hi")
        rng = np.random.default_rng(n)
        encoded = encode(_column(rng, np.int64, n), codec)
        assert (decode(encoded, lo, hi).tobytes()
                == decode(encoded)[lo:hi].tobytes())

    def test_bitpack_all_ones_at_full_width(self):
        values = np.array([0, -1, 1, -1, np.iinfo(np.int64).min] * 5,
                          dtype=np.int64)
        encoded = encode(values, "bitpack")
        assert encoded.width == 64
        for lo, hi in ((0, 25), (3, 17), (8, 9), (24, 25)):
            assert np.array_equal(decode(encoded, lo, hi), values[lo:hi])


#: Codec per column, compressed bytes and a SHA-256 over every chunk's
#: payload bytes of the SF 0.01 catalog (seed 0) in 8192-row chunks,
#: recorded with the reference kernels.
CATALOG_CODECS = {
    "customer": (17344, "975a2d282af12072f175b17230fc1a1b3ddba51739ab67dc958b9b84220d3311", {
        "c_acctbal": "plain", "c_custkey": "bitpack",
        "c_mktsegment": "dict", "c_nationkey": "dict",
        "c_phone": "bitpack",
    }),
    "lineitem": (1167288, "d6c313c4ccfc8ee1a563ec812a5f1db3544cf7dc25cf6e266fa7ac3956ceb5ef", {
        "l_commitdate": "bitpack", "l_discount": "dict",
        "l_extendedprice": "plain", "l_linenumber": "dict",
        "l_linestatus": "dict", "l_orderkey": "bitpack",
        "l_partkey": "bitpack", "l_quantity": "dict",
        "l_receiptdate": "bitpack", "l_returnflag": "dict",
        "l_shipdate": "bitpack", "l_shipinstruct": "dict",
        "l_shipmode": "dict", "l_suppkey": "dict", "l_tax": "dict",
    }),
    "nation": (138, "a635ecf7c073ed4babcd197518f9947e2b0cd832a8bba0130f6ed96150a9a533", {
        "n_name": "bitpack", "n_nationkey": "bitpack",
        "n_regionkey": "bitpack",
    }),
    "orders": (182395, "abcca410d6cc9df29a1b1b35eab7367e2d7eb80493313d2da0028b1ffaf3bc69", {
        "o_custkey": "bitpack", "o_orderdate": "bitpack",
        "o_orderkey": "bitpack", "o_orderpriority": "dict",
        "o_orderstatus": "dict", "o_shippriority": "dict",
        "o_totalprice": "bitpack",
    }),
    "part": (23976, "29c547b26f987bf38395df35ba739ac44fb15609136f2d208940871cbc8c4aed", {
        "p_brand": "dict", "p_container": "dict", "p_name": "bitpack",
        "p_partkey": "bitpack", "p_retailprice": "dict", "p_size": "dict",
        "p_type": "bitpack",
    }),
    "partsupp": (114528, "82d6c92a503e349ac75b59b4c47e1f3266937aeb86bd87a94f550c3f8974f465", {
        "ps_availqty": "plain", "ps_partkey": "bitpack",
        "ps_suppkey": "dict", "ps_supplycost": "plain",
    }),
    "region": (68, "85280449a42acd64363687a31711027516fd2a61fef5c86acdeb6a7f312f55c1", {
        "r_name": "bitpack", "r_regionkey": "bitpack",
    }),
    "supplier": (1047, "7005621122c19a04505354cf436d621b2210d57f1006b1bbda7fa5918ad0b748", {
        "s_acctbal": "bitpack", "s_nationkey": "bitpack",
        "s_suppkey": "bitpack",
    }),
}


class TestCatalogPayloads:
    def test_catalog_codecs_sizes_and_bytes_are_unchanged(self):
        catalog = TpchGenerator(scale_factor=0.01, seed=0).generate()
        store = TieredColumnStore(Device(), chunk_rows=8192,
                                  price_encode=False)
        for name in sorted(catalog):
            store.ingest_table(catalog[name])
        assert store.managed_tables() == sorted(CATALOG_CODECS)
        for table, (nbytes, digest, codecs) in CATALOG_CODECS.items():
            assert store.column_codecs(table) == codecs
            assert store.table_compressed_nbytes(table) == nbytes
            payloads = hashlib.sha256()
            for column in sorted(codecs):
                chunks = store._columns[(table, column)]
                for chunk in chunks:
                    for part in chunk.encoded.payload:
                        payloads.update(part.tobytes())
                rows = np.concatenate([decode(c.encoded) for c in chunks])
                assert rows.tobytes() == (
                    catalog[table].column(column).data.tobytes()
                )
            assert payloads.hexdigest() == digest
