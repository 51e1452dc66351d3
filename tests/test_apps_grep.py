"""Tests for the grep application."""

import pytest

from repro.apps import GrepApplication, UnitColumns
from repro.apps.grep import NONSENSE_WORD
from repro.corpus import text_400k_like
from repro.vfs import LiteralFile, Segment


def literal_file(path: str, text: str) -> LiteralFile:
    return LiteralFile.from_text(path, text)


class TestConstruction:
    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            GrepApplication("")

    def test_negative_hit_rate_rejected(self):
        with pytest.raises(ValueError):
            GrepApplication("x", expected_hit_rate=-1)


class TestNativeRun:
    def test_counts_matches_per_line(self):
        f = literal_file("a.txt", "needle here\nno match\nneedle again\n")
        res = GrepApplication("needle").run_native([f])
        assert res.work.matches == 2
        assert len(res.outputs["lines"]) == 2

    def test_nonsense_word_not_found_in_corpus(self):
        """The paper's full-traversal worst case: zero matches."""
        cat = text_400k_like(scale=2e-4)
        units = list(cat)[:20]
        res = GrepApplication(NONSENSE_WORD).run_native(units)
        assert res.work.matches == 0
        assert res.work.files_opened == 20
        assert res.work.bytes_read == sum(u.size for u in units)

    def test_regex_mode(self):
        f = literal_file("a.txt", "cat bat rat\ndog\n")
        res = GrepApplication(r"[cbr]at", regex=True).run_native([f])
        assert res.work.matches == 1  # one matching line

    def test_literal_mode_does_not_interpret_regex(self):
        f = literal_file("a.txt", "a.c\nabc\n")
        res = GrepApplication("a.c").run_native([f])
        assert res.work.matches == 1

    def test_segment_counts_as_one_file(self):
        cat = text_400k_like(scale=1e-4)
        seg = Segment("s0", tuple(list(cat)[:5]))
        res = GrepApplication(NONSENSE_WORD).run_native([seg])
        assert res.work.files_opened == 1
        assert res.work.bytes_read == seg.size + 4  # 4 joining newlines

    def test_output_bytes_tracked(self):
        f = literal_file("a.txt", "needle\n")
        res = GrepApplication("needle").run_native([f])
        assert res.work.output_bytes == 7


class TestEstimateWork:
    def test_matches_native_for_nonsense_search(self):
        cat = text_400k_like(scale=2e-4)
        units = list(cat)[:15]
        app = GrepApplication(NONSENSE_WORD)
        native = app.run_native(units).work
        est = app.estimate_work(UnitColumns.of(units))
        assert est.files_opened == native.files_opened
        assert est.bytes_read == native.bytes_read
        assert est.matches == native.matches == 0

    def test_hit_rate_estimate(self):
        cols = UnitColumns.of([text_400k_like(scale=1e-4)[0]])
        est = GrepApplication("the", expected_hit_rate=1e-3).estimate_work(cols)
        assert est.matches == int(cols.size[0] * 1e-3)
        assert est.output_bytes > 0
