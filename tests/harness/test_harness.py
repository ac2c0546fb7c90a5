"""Tests for the harness: report formatting, I/O-bench builders."""

import pytest

from repro.harness import (
    IO_DESIGNS,
    build_custom_multi,
    build_io_target,
    format_table,
)
from repro.harness.iobench import build_multi_db
from repro.storage import GB, KB
from repro.workloads import RANDOM_8K, run_sqlio


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "long header"], [[1, 2.5], [300, 0.001]])
        lines = text.splitlines()
        assert len(lines) == 4
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all rows equally wide

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_number_formatting(self):
        text = format_table(["v"], [[12345.6], [0.1234], [42]])
        assert "12,346" in text
        assert "0.123" in text
        assert "42" in text


class TestIoBuilders:
    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError):
            build_io_target("Floppy")

    @pytest.mark.parametrize("design", IO_DESIGNS)
    def test_every_design_serves_reads(self, design):
        target = build_io_target(design, span_bytes=8 * GB)
        sim = target.cluster.sim

        def one_read():
            yield from target.read(0, 8 * KB)

        sim.run_until_complete(sim.spawn(one_read()))
        assert sim.now > 0

    def test_custom_multi_uses_all_providers(self):
        target = build_custom_multi(3, span_bytes=8 * GB)
        assert len(target.memory_servers) == 3
        assert len(target._reader.file.providers) == 3

    def test_multi_db_targets_share_one_provider(self):
        targets = build_multi_db(3, per_db_span=1 * GB)
        providers = {t._reader.file.providers[0] for t in targets}
        assert providers == {"mem0"}
        # All three can run concurrently on the shared simulator.
        assert len({t.cluster.sim for t in targets}) == 1

    def test_write_path_works(self):
        target = build_io_target("Custom", span_bytes=8 * GB)
        result = run_sqlio(
            target.cluster.sim, target,
            RANDOM_8K.__class__(name="w", threads=2, io_bytes=8 * KB,
                                random=True, ops_per_thread=10),
            span_bytes=target.span_bytes, write=True,
        )
        assert sum(record[3] for record in result.records) == 2 * 10 * 8 * KB
