"""ASCII bar rendering tests."""

from repro.reporting import stacked_bars


class TestStackedBars:
    def test_legend_lists_all_segments(self):
        text = stacked_bars("T", ["m1"], {"s1": [1.0], "s2": [2.0]})
        assert "s1" in text and "s2" in text
        assert "legend" in text

    def test_totals_printed(self):
        text = stacked_bars("T", ["m1"], {"s1": [1.0], "s2": [2.0]})
        assert "3s" in text

    def test_segment_proportions(self):
        text = stacked_bars("T", ["m"], {"a": [3.0], "b": [1.0]}, width=40)
        row = text.splitlines()[-1]
        assert row.count("█") == 30
        assert row.count("▓") == 10
