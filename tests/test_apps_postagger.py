"""Tests for the POS tagger application."""

import pytest

from repro.apps import PosTaggerApplication, UnitColumns
from repro.apps.postagger import CONTEXT_EXPONENT, tag_sentence
from repro.apps.tokenize import tokenize
from repro.corpus import agnes_grey_like, dubliners_like, text_400k_like
from repro.vfs import Segment


class TestTagSentence:
    def test_every_token_tagged(self):
        toks = tokenize("The station will operate near the river.")
        tags, _ = tag_sentence(toks)
        assert len(tags) == len(toks)

    def test_closed_class_lookup(self):
        tags, _ = tag_sentence(tokenize("The cat sat on the mat"))
        assert tags[0] == "DT"
        assert tags[3] == "IN"

    def test_suffix_rules(self):
        tags, _ = tag_sentence(["modernization"])
        assert tags[0] == "NN"
        tags, _ = tag_sentence(["quickly"])
        assert tags[0] == "RB"

    def test_context_rule_dt_verb_to_noun(self):
        # "the generate" -> generate retagged as NN after a determiner
        tags, _ = tag_sentence(["the", "mesmerize"])
        assert tags == ["DT", "NN"]

    def test_context_rule_modal_plus_noun_to_verb(self):
        tags, _ = tag_sentence(["will", "run"])
        assert tags[1] == "VB"

    def test_numbers_tagged_cd(self):
        tags, _ = tag_sentence(["42"])
        assert tags == ["CD"]

    def test_punct(self):
        tags, _ = tag_sentence(["."])
        assert tags == ["PUNCT"]

    def test_context_ops_superlinear(self):
        _, ops_short = tag_sentence(["word"] * 10)
        _, ops_long = tag_sentence(["word"] * 20)
        assert ops_long > 2.0 * ops_short  # superlinear in length
        assert ops_long == pytest.approx(20.0 ** CONTEXT_EXPONENT)

    def test_empty_sentence(self):
        tags, ops = tag_sentence([])
        assert tags == [] and ops == 0.0


class TestNativeRun:
    def test_counters_populated(self):
        units = list(text_400k_like(scale=1e-4))[:10]
        res = PosTaggerApplication().run_native(units)
        w = res.work
        assert w.files_opened == 10
        assert w.bytes_read == sum(u.size for u in units)
        assert w.tokens > 0 and w.sentences > 0 and w.context_ops > 0
        assert sum(res.outputs["tag_counts"].values()) == w.tokens

    def test_segment_is_one_open(self):
        cat = text_400k_like(scale=1e-4)
        seg = Segment("s", tuple(list(cat)[:4]))
        res = PosTaggerApplication().run_native([seg])
        assert res.work.files_opened == 1

    def test_deterministic(self):
        units = list(text_400k_like(scale=1e-4))[:5]
        a = PosTaggerApplication().run_native(units).work
        b = PosTaggerApplication().run_native(units).work
        assert a.tokens == b.tokens and a.context_ops == b.context_ops


class TestEstimateWork:
    def test_estimate_close_to_native(self):
        """Metadata-driven estimates must track real counters within 25 %."""
        units = list(text_400k_like(scale=2e-4))[:30]
        app = PosTaggerApplication()
        native = app.run_native(units).work
        est = app.estimate_work(UnitColumns.of(units))
        assert est.files_opened == native.files_opened
        assert est.bytes_read == native.bytes_read
        assert abs(est.tokens - native.tokens) / native.tokens < 0.25
        assert abs(est.context_ops - native.context_ops) / native.context_ops < 0.35

    def test_complexity_raises_context_ops(self):
        dub = dubliners_like().virtual_file()
        agnes = agnes_grey_like().virtual_file()
        app = PosTaggerApplication()
        w_dub = app.estimate_work(UnitColumns.of([dub]))
        w_agnes = app.estimate_work(UnitColumns.of([agnes]))
        # nearly equal token counts, very different context work
        assert abs(w_dub.tokens - w_agnes.tokens) / w_agnes.tokens < 0.15
        assert w_dub.context_ops > 1.4 * w_agnes.context_ops


class TestNovelsNative:
    def test_complex_novel_does_more_work_per_token(self):
        """Native §5.2 experiment: equal words, ~2x context work."""
        dub, agnes = dubliners_like(), agnes_grey_like()
        app = PosTaggerApplication()
        w_d = app.run_native([dub.unit()]).work
        w_a = app.run_native([agnes.unit()]).work
        ops_per_token_ratio = (w_d.context_ops / w_d.tokens) / (w_a.context_ops / w_a.tokens)
        assert ops_per_token_ratio > 1.4
