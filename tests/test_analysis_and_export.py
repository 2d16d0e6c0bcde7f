"""Tests for charts/tables and storage CSV export."""

import csv

import pytest

from repro.analysis import (
    bar_chart,
    grouped_bar_chart,
    render_table,
    series_to_csv,
)
from repro.openwpm.storage import StorageController


class TestBarChart:
    def test_peak_value_fills_width(self):
        lines = bar_chart({"a": 10, "b": 5}, width=20)
        assert lines[0].count("#") == 20
        assert lines[1].count("#") == 10

    def test_labels_aligned(self):
        lines = bar_chart({"short": 1, "much-longer": 1})
        assert lines[0].index("#") == lines[1].index("#")

    def test_empty_series(self):
        assert bar_chart({}) == []

    def test_zero_values_no_crash(self):
        lines = bar_chart({"a": 0.0})
        assert "0" in lines[0]

    def test_custom_format(self):
        lines = bar_chart({"a": 0.5}, fmt="{:.1%}")
        assert "50.0%" in lines[0]


class TestGroupedBarChart:
    def test_structure(self):
        lines = grouped_bar_chart({
            "bucket-0": {"front": 10, "deep": 14},
            "bucket-1": {"front": 6, "deep": 9},
        })
        assert lines[0].startswith("bucket-0")
        assert sum(1 for line in lines if "front" in line) == 2

    def test_missing_series_rendered_as_zero(self):
        lines = grouped_bar_chart({"g": {"a": 5}, "h": {"b": 3}})
        assert any("a" in line and " 0" in line for line in lines)


class TestRenderTable:
    def test_alignment_and_separator(self):
        lines = render_table(["name", "n"], [["yandex.ru", 3848],
                                             ["moatads.com", 2165]])
        assert lines[1].startswith("----")
        assert lines[2].startswith("yandex.ru")
        assert lines[2].index("3848") == lines[3].index("2165")

    def test_header_wider_than_cells(self):
        lines = render_table(["very-long-header"], [["x"]])
        assert len(lines[0]) >= len("very-long-header")


class TestCSVExport:
    def test_series_to_csv(self, tmp_path):
        path = tmp_path / "series.csv"
        count = series_to_csv(str(path), ["a", "b"], [[1, 2], [3, 4]])
        assert count == 2
        with open(path) as handle:
            rows = list(csv.reader(handle))
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_storage_export_table(self, tmp_path):
        storage = StorageController()
        storage.begin_visit(0, "https://x.test/")
        storage.recorder.record_javascript("d", "s", "navigator.webdriver",
                                           "get", "true")
        storage.end_visit()
        path = tmp_path / "javascript.csv"
        rows = storage.export_table_csv("javascript", str(path))
        assert rows == 1
        with open(path) as handle:
            parsed = list(csv.reader(handle))
        assert "symbol" in parsed[0]
        assert "navigator.webdriver" in parsed[1]

    def test_storage_export_all(self, tmp_path):
        storage = StorageController()
        storage.begin_visit(0, "https://x.test/")
        storage.end_visit()
        counts = storage.export_all_csv(str(tmp_path / "dump"))
        assert counts["site_visits"] == 1
        assert set(counts) == set(StorageController.TABLES)

    def test_unknown_table_rejected(self, tmp_path):
        storage = StorageController()
        with pytest.raises(ValueError):
            storage.export_table_csv("javascript; DROP TABLE x",
                                     str(tmp_path / "x.csv"))
