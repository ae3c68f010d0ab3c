"""Unit tests for reporting helpers."""

from repro.experiments.reporting import format_mean_std, render_table


class TestRenderTable:
    def test_contains_headers_and_cells(self):
        text = render_table(["name", "value"], [["a", 1.234], ["b", 5.0]])
        assert "name" in text
        assert "1.234" in text
        assert "5.000" in text

    def test_title_prepended(self):
        text = render_table(["x"], [[1.0]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_nan_and_inf_rendering(self):
        text = render_table(["v"], [[float("nan")], [float("inf")]])
        assert "-" in text
        assert "inf" in text

    def test_alignment_consistent(self):
        text = render_table(["col"], [["short"], ["a-much-longer-cell"]])
        lines = text.splitlines()
        assert len(lines[-1]) == len(lines[-2])

    def test_empty_rows_ok(self):
        text = render_table(["a", "b"], [])
        assert "a" in text


class TestFormatMeanStd:
    def test_band(self):
        assert format_mean_std(0.0123, 0.0008) == "0.0123+-0.0008"

    def test_nan_mean_renders_dash(self):
        assert format_mean_std(float("nan"), 0.1) == "-"

    def test_nan_std_omits_band(self):
        assert format_mean_std(1.5, float("nan")) == "1.5"

    def test_zero_std_omits_band(self):
        """A single seed measures no spread: no misleading +-0 band."""
        assert format_mean_std(1.5, 0.0) == "1.5"

    def test_custom_format(self):
        assert format_mean_std(1.23456, 0.5, float_format="{:.1f}") == "1.2+-0.5"
