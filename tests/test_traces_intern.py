"""The interned trace representation: symbol tables and compiled columns."""

from __future__ import annotations

import math

from repro import urls as url_utils
from repro.core.piggyback import PiggybackElement
from repro.traces.intern import SymbolTable, compile_trace
from repro.traces.records import Trace

from conftest import make_record


class TestSymbolTable:
    def test_ids_are_dense_and_first_seen(self):
        table = SymbolTable()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0
        assert len(table) == 2
        assert table.string(1) == "b"
        assert table.id_of("b") == 1
        assert table.id_of("missing") is None
        assert "a" in table and "missing" not in table

    def test_seeded_construction(self):
        table = SymbolTable(["x", "y", "x"])
        assert table.strings == ["x", "y"]


class TestCompiledTrace:
    def _trace(self):
        return Trace(
            [
                make_record(0.0, "c1", "www.x.example/a/p.html", size=1000,
                            last_modified=100.0),
                make_record(1.0, "c2", "www.x.example/a/i.gif", size=50),
                make_record(2.0, "c1", "www.x.example/b/q.html", size=2000),
                make_record(3.0, "c1", "www.x.example/a/p.html", size=1000),
            ]
        )

    def test_columns_match_records(self):
        trace = self._trace()
        compiled = compile_trace(trace)
        assert len(compiled) == len(trace)
        (chunk,) = compiled.chunks()
        for index, record in enumerate(trace):
            assert chunk.timestamps[index] == record.timestamp
            assert compiled.urls.string(chunk.url_ids[index]) == record.url
            assert compiled.sources.string(chunk.source_ids[index]) == record.source
            assert chunk.sizes[index] == record.size
            assert math.isnan(chunk.mtimes[index]) == (record.last_modified is None)
        # Lossless: statuses and methods too, so records rebuild exactly.
        assert list(compiled.records()) == list(trace)

    def test_wire_bytes_match_piggyback_model(self):
        compiled = compile_trace(self._trace())
        wire = compiled.wire_bytes()
        for url_id, url in enumerate(compiled.urls.strings):
            assert wire[url_id] == PiggybackElement(url=url).wire_bytes()

    def test_content_type_and_prefix_columns(self):
        compiled = compile_trace(self._trace())
        type_ids = compiled.content_type_ids()
        for url_id, url in enumerate(compiled.urls.strings):
            name = compiled.content_types.string(type_ids[url_id])
            assert name == url_utils.content_type_of(url)
        for level in (0, 1, 2):
            prefix_ids = compiled.directory_prefix_ids(level)
            table = compiled.directory_prefix_table(level)
            for url_id, url in enumerate(compiled.urls.strings):
                assert table.string(prefix_ids[url_id]) == url_utils.directory_prefix(
                    url, level
                )

    def test_url_counts_match_trace(self):
        trace = self._trace()
        compiled = compile_trace(trace)
        counts = compiled.url_counts()
        by_string = trace.url_counts()
        for url_id, url in enumerate(compiled.urls.strings):
            assert counts[url_id] == by_string[url]

    def test_excluded_type_id_set(self):
        compiled = compile_trace(self._trace())
        excluded = compiled.content_type_id_set({"image"})
        gif_id = compiled.urls.id_of("www.x.example/a/i.gif")
        html_id = compiled.urls.id_of("www.x.example/a/p.html")
        type_ids = compiled.content_type_ids()
        assert type_ids[gif_id] in excluded
        assert type_ids[html_id] not in excluded

    def test_ensure_url_extends_built_columns(self):
        compiled = compile_trace(self._trace())
        wire = compiled.wire_bytes()
        type_ids = compiled.content_type_ids()
        prefix_ids = compiled.directory_prefix_ids(1)
        counts = compiled.url_counts()
        before = len(compiled.urls)

        new_id = compiled.ensure_url("www.x.example/c/new.html")
        assert new_id == before
        assert len(wire) == len(type_ids) == len(prefix_ids) == len(counts) == before + 1
        assert wire[new_id] == PiggybackElement(url="www.x.example/c/new.html").wire_bytes()
        assert counts[new_id] == 0
        table = compiled.directory_prefix_table(1)
        assert table.string(prefix_ids[new_id]) == url_utils.directory_prefix(
            "www.x.example/c/new.html", 1
        )
        # Re-interning an existing URL must not grow anything.
        assert compiled.ensure_url("www.x.example/a/p.html") < before
        assert len(wire) == before + 1

    def test_compile_is_memoized_per_trace(self):
        trace = self._trace()
        assert compile_trace(trace) is compile_trace(trace)
        assert compile_trace(self._trace()) is not compile_trace(trace)
        compiled = compile_trace(trace)
        assert compile_trace(compiled) is compiled


class TestTraceSortSkipping:
    def test_presorted_input_preserved(self):
        records = [make_record(float(i), "c1", f"www.x.example/{i}.html")
                   for i in range(5)]
        trace = Trace(records)
        assert list(trace) == records

    def test_unsorted_input_sorted(self):
        records = [make_record(3.0), make_record(1.0), make_record(2.0)]
        trace = Trace(records)
        assert [r.timestamp for r in trace] == [1.0, 2.0, 3.0]

    def test_slice_between_filter_preserve_order(self):
        records = [make_record(float(i), "c1", f"www.x.example/{i % 3}.html")
                   for i in range(10)]
        trace = Trace(records)
        assert [r.timestamp for r in trace[2:6]] == [2.0, 3.0, 4.0, 5.0]
        assert [r.timestamp for r in trace.between(3.0, 7.0)] == [3.0, 4.0, 5.0, 6.0]
        kept = trace.filter(lambda r: r.url.endswith("0.html"))
        assert [r.timestamp for r in kept] == [0.0, 3.0, 6.0, 9.0]
        assert kept.between(3.0, 9.0).start_time == 3.0
