"""Differential harness for streamed trace ingestion.

The contract under test: for any trace, any format it can be written in,
any read-buffer size (including ones that split lines mid-token) and any
chunk size (including 1), chunked ingest plus chunk-resumed simulation
is bit-identical to the legacy whole-file readers plus one-shot
simulation — across every engine and all four write-miss policies.
A corrupt-input matrix asserts every malformed stream dies with a
:class:`TraceFormatError` carrying a line number, never a bare
``ValueError``.
"""

import gzip
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.cache.fastsim import simulate_trace, simulate_trace_chunked
from repro.cache.policies import WriteHitPolicy, WriteMissPolicy
from repro.common.errors import TraceFormatError
from repro.trace.events import READ, WRITE
from repro.trace.ingest import (
    ingest_trace,
    iter_trace_chunks,
    trace_content_hash,
    TraceHasher,
)
from repro.trace.io import read_din_trace, read_trace
from repro.trace.trace import Trace

COMMON_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Every legal (hit, miss) pairing — all four write-miss policies.
POLICY_PAIRS = (
    (WriteHitPolicy.WRITE_BACK, WriteMissPolicy.FETCH_ON_WRITE),
    (WriteHitPolicy.WRITE_BACK, WriteMissPolicy.WRITE_VALIDATE),
    (WriteHitPolicy.WRITE_THROUGH, WriteMissPolicy.FETCH_ON_WRITE),
    (WriteHitPolicy.WRITE_THROUGH, WriteMissPolicy.WRITE_VALIDATE),
    (WriteHitPolicy.WRITE_THROUGH, WriteMissPolicy.WRITE_AROUND),
    (WriteHitPolicy.WRITE_THROUGH, WriteMissPolicy.WRITE_INVALIDATE),
)


@st.composite
def traces(draw, max_refs=60) -> Trace:
    refs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1023),
                st.sampled_from((4, 8)),
                st.sampled_from((READ, WRITE)),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=1,
            max_size=max_refs,
        )
    )
    addresses, sizes, kinds, icounts = zip(
        *[(slot * size, size, kind, icount) for slot, size, kind, icount in refs]
    )
    return Trace.from_arrays(
        np.array(addresses, dtype=np.int64),
        np.array(sizes, dtype=np.int32),
        np.array(kinds, dtype=np.int8),
        np.array(icounts, dtype=np.int32),
        name="gen",
    )


def as_text(trace: Trace) -> str:
    lines = ["# generated"]
    for address, size, kind, icount in zip(
        trace.addresses, trace.sizes, trace.kinds, trace.icounts
    ):
        kind_char = "r" if kind == READ else "w"
        lines.append(f"{kind_char} {address:x} {size} {icount}")
    return "\n".join(lines) + "\n"


def as_csv(trace: Trace) -> str:
    lines = ["kind,address,size,icount"]
    for address, size, kind, icount in zip(
        trace.addresses, trace.sizes, trace.kinds, trace.icounts
    ):
        kind_char = "r" if kind == READ else "w"
        lines.append(f"{kind_char},{address:x},{size},{icount}")
    return "\n".join(lines) + "\n"


def as_din(trace: Trace) -> str:
    """Fold icounts into fetch records the way din traces carry them."""
    lines = []
    for address, _size, kind, icount in zip(
        trace.addresses, trace.sizes, trace.kinds, trace.icounts
    ):
        for _ in range(icount - 1):
            lines.append(f"2 {address:x}")
        lines.append(f"{0 if kind == READ else 1} {address:x}")
    return "\n".join(lines) + "\n"


def assert_traces_equal(got: Trace, expected: Trace) -> None:
    np.testing.assert_array_equal(got.address_array, expected.address_array)
    np.testing.assert_array_equal(got.size_array, expected.size_array)
    np.testing.assert_array_equal(got.kind_array, expected.kind_array)
    np.testing.assert_array_equal(got.icount_array, expected.icount_array)


def stats_dict(stats) -> dict:
    payload = stats.to_dict()
    payload.pop("extra", None)
    return payload


class TestParserDifferential:
    @given(trace=traces(), read_bytes=st.sampled_from((1, 7, 64, 1 << 20)))
    @settings(**COMMON_SETTINGS)
    def test_text_matches_read_trace(self, trace, read_bytes):
        text = as_text(trace)
        expected = read_trace(io.StringIO(text))
        got = ingest_trace(
            io.BytesIO(text.encode()), format="text", read_bytes=read_bytes
        )
        assert_traces_equal(got, expected)

    @given(trace=traces(), read_bytes=st.sampled_from((3, 50, 1 << 20)))
    @settings(**COMMON_SETTINGS)
    def test_din_matches_read_din_trace(self, trace, read_bytes):
        text = as_din(trace)
        expected = read_din_trace(io.StringIO(text))
        got = ingest_trace(
            io.BytesIO(text.encode()), format="din", read_bytes=read_bytes
        )
        assert_traces_equal(got, expected)
        # Din folds fetches back into icounts, so instruction counts close
        # (sizes don't round-trip: din records carry no size).
        assert got.instruction_count == trace.instruction_count

    @given(trace=traces(), read_bytes=st.sampled_from((5, 1 << 20)))
    @settings(**COMMON_SETTINGS)
    def test_csv_matches_text(self, trace, read_bytes):
        expected = read_trace(io.StringIO(as_text(trace)))
        got = ingest_trace(
            io.BytesIO(as_csv(trace).encode()), format="csv", read_bytes=read_bytes
        )
        assert_traces_equal(got, expected)

    @given(trace=traces(), chunk_refs=st.sampled_from((1, 3, 17, 1 << 18)))
    @settings(**COMMON_SETTINGS)
    def test_chunk_sizes_are_exact_and_lossless(self, trace, chunk_refs):
        chunks = list(
            iter_trace_chunks(
                io.BytesIO(as_text(trace).encode()),
                format="text",
                chunk_refs=chunk_refs,
            )
        )
        assert all(len(chunk) == chunk_refs for chunk in chunks[:-1])
        assert 0 < len(chunks[-1]) <= chunk_refs
        merged = chunks[0]
        for chunk in chunks[1:]:
            merged = merged.concat(chunk)
        assert_traces_equal(merged, read_trace(io.StringIO(as_text(trace))))

    @given(trace=traces())
    @settings(**COMMON_SETTINGS)
    def test_auto_format_and_gzip_sniffing(self, trace):
        text = as_text(trace)
        expected = read_trace(io.StringIO(text))
        for payload in (text.encode(), gzip.compress(text.encode())):
            got = ingest_trace(io.BytesIO(payload), format="auto")
            assert_traces_equal(got, expected)

    @given(trace=traces())
    @settings(**COMMON_SETTINGS)
    def test_content_hash_is_representation_invariant(self, trace):
        digests = set()
        digests.add(
            trace_content_hash(ingest_trace(io.BytesIO(as_text(trace).encode())))
        )
        digests.add(
            trace_content_hash(
                ingest_trace(io.BytesIO(gzip.compress(as_csv(trace).encode())))
            )
        )
        hasher = TraceHasher()
        for chunk in iter_trace_chunks(
            io.BytesIO(as_text(trace).encode()), format="text", chunk_refs=7
        ):
            hasher.update(chunk)
        digests.add(hasher.hexdigest())
        assert len(digests) == 1


class TestChunkedSimulationDifferential:
    @given(
        trace=traces(),
        policy=st.sampled_from(POLICY_PAIRS),
        chunk_refs=st.sampled_from((1, 5, 23)),
        flush=st.booleans(),
    )
    @settings(**COMMON_SETTINGS)
    def test_all_engines_all_policies(self, trace, policy, chunk_refs, flush):
        write_hit, write_miss = policy
        config = CacheConfig(
            size=128,
            line_size=16,
            write_hit=write_hit,
            write_miss=write_miss,
        )
        expected = stats_dict(simulate_trace(trace, config, flush=flush))
        text = as_text(trace)
        for backend in ("auto", "reference"):
            chunks = iter_trace_chunks(
                io.BytesIO(text.encode()), format="text", chunk_refs=chunk_refs
            )
            got = simulate_trace_chunked(
                chunks, config, flush=flush, backend=backend
            )
            assert stats_dict(got) == expected, backend

    def test_larger_than_memory_bound_is_bit_identical(self):
        """A trace far larger than the chunk bound, resumed across many
        chunk boundaries (the CI acceptance gate)."""
        rng = np.random.RandomState(1993)
        count = 50_000
        sizes = np.where(rng.rand(count) < 0.5, 4, 8).astype(np.int32)
        addresses = rng.randint(0, 4096, size=count).astype(np.int64) * 8
        kinds = (rng.rand(count) < 0.4).astype(np.int8)
        icounts = rng.randint(1, 4, size=count).astype(np.int32)
        trace = Trace.from_arrays(addresses, sizes, kinds, icounts, name="big")
        text = as_text(trace)
        for write_hit, write_miss in POLICY_PAIRS:
            config = CacheConfig(
                size=4096, line_size=32, write_hit=write_hit, write_miss=write_miss
            )
            expected = stats_dict(simulate_trace(trace, config))
            chunks = iter_trace_chunks(
                io.BytesIO(text.encode()), format="text", chunk_refs=1000
            )
            got = simulate_trace_chunked(chunks, config)
            assert stats_dict(got) == expected, write_miss


class TestCorruptInputs:
    """Every malformed stream raises TraceFormatError with a line number."""

    MATRIX = [
        ("non-hex address", b"r zz 4\n", "text", "line 1"),
        ("zero size", b"r 10 0\n", "text", "line 1"),
        ("negative size", b"r 10 -4\n", "text", "line 1"),
        ("bad field count", b"r 10\n", "text", "line 1"),
        ("unknown kind", b"x 10 4\nr 10 4\n", "text", "line 1"),
        ("overlong address", b"r 10 4\nr " + b"f" * 17 + b" 4\n", "text", "line 2"),
        ("negative address", b"r -10 4\n", "text", "line 1"),
        ("zero icount", b"r 10 4 0\n", "text", "line 1"),
        ("unknown din label", b"3 10\n", "din", "line 1"),
        ("din missing address", b"0\n", "din", "line 1"),
        ("din bad address", b"0 xyzzy\n", "din", "line 1"),
        ("csv bad size", b"kind,address,size\nr,10,5\n", "csv", "line 2"),
    ]

    @pytest.mark.parametrize(
        "payload,format,fragment",
        [case[1:] for case in MATRIX],
        ids=[case[0] for case in MATRIX],
    )
    def test_matrix(self, payload, format, fragment):
        with pytest.raises(TraceFormatError) as excinfo:
            ingest_trace(io.BytesIO(payload), format=format)
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize("read_bytes", [1, 4, 1 << 20])
    def test_truncated_gzip(self, read_bytes):
        data = gzip.compress(b"r 10 4\n" * 400)
        with pytest.raises(TraceFormatError) as excinfo:
            ingest_trace(io.BytesIO(data[: len(data) - 5]), read_bytes=read_bytes)
        assert "gzip" in str(excinfo.value)
        assert "line" in str(excinfo.value)

    def test_benign_variants_parse(self):
        """CRLF, BOM, trailing blank lines and comments are all fine."""
        payload = b"\xef\xbb\xbf# hdr\r\nr 10 4\r\nw 20 8 2\r\n\r\n\n"
        trace = ingest_trace(io.BytesIO(payload))
        assert trace.addresses == [0x10, 0x20]
        assert trace.sizes == [4, 8]
        assert trace.icounts == [1, 2]

    def test_legacy_readers_never_raise_bare_valueerror(self, tmp_path):
        for name, payload, reader in [
            ("bad.trace", b"r zz 4\n", read_trace),
            ("bad2.trace", b"r 10 4 x\n", read_trace),
            ("neg.trace", b"r 10 -4\n", read_trace),
            ("bad.din", b"0 zz\n", read_din_trace),
            ("neg.din", b"0\n", read_din_trace),
        ]:
            path = tmp_path / name
            path.write_bytes(payload)
            with pytest.raises(TraceFormatError) as excinfo:
                reader(str(path))
            assert "line 1" in str(excinfo.value)

    def test_legacy_reader_truncated_gzip(self, tmp_path):
        data = gzip.compress(b"r 10 4\n" * 400)
        path = tmp_path / "trunc.trace.gz"
        path.write_bytes(data[: len(data) - 5])
        with pytest.raises(TraceFormatError) as excinfo:
            read_trace(str(path))
        assert "line" in str(excinfo.value)


class TestOpenSniffing:
    """`_open` decides gzip by magic bytes, not filename suffix."""

    TEXT = "r 10 4\nw 20 8\n"

    def test_gzip_without_suffix(self, tmp_path):
        path = tmp_path / "plain.trace"
        path.write_bytes(gzip.compress(self.TEXT.encode()))
        assert len(read_trace(str(path))) == 2

    def test_plain_file_named_gz(self, tmp_path):
        path = tmp_path / "plain.trace.gz"
        path.write_text(self.TEXT)
        assert len(read_trace(str(path))) == 2

    def test_ingest_both_directions(self, tmp_path):
        misnamed_gz = tmp_path / "a.trace"
        misnamed_gz.write_bytes(gzip.compress(self.TEXT.encode()))
        misnamed_plain = tmp_path / "b.trace.gz"
        misnamed_plain.write_text(self.TEXT)
        for path in (misnamed_gz, misnamed_plain):
            assert len(ingest_trace(str(path))) == 2

    def test_bom_stripped(self, tmp_path):
        path = tmp_path / "bom.trace"
        path.write_bytes(b"\xef\xbb\xbf" + self.TEXT.encode())
        assert len(read_trace(str(path))) == 2
