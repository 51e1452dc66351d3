"""Per-unit scalar cost models, frozen as differential oracles.

Verbatim copies of the loop bodies of ``GrepApplication``,
``PosTaggerApplication`` and ``ExtractorApplication.estimate_work``, of
``GrepCostProfile``, ``PosCostProfile`` and ``ExtractCostProfile.breakdown``
(with ``PosCostProfile.memory_penalty``), of ``TextStats.tokens_in`` /
``sentences_in`` and of ``Segment.size`` / ``Segment.stats`` exactly as they
existed before the cost models became columnar — one Python iteration per
unit, ``+=`` accumulation, builtin ``sum``.  Methods became functions that
take the application or profile for its parameters; only that and the
imports are adjusted.  ``tests/test_cost_model_differential.py`` asserts
``==`` between these and the columnar public code.

Do not "improve" this module: its value is that it does not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2
from typing import Sequence

from repro.apps.base import WorkAccount
from repro.apps.extractor import ExtractCostProfile, ExtractorApplication
from repro.apps.grep import GrepApplication
from repro.apps.postagger import CONTEXT_EXPONENT, PosTaggerApplication
from repro.apps.profiles import GrepCostProfile, PosCostProfile, TimeBreakdown
from repro.vfs.files import Segment, TextStats, VirtualFile

__all__ = [
    "ReferenceMeta",
    "reference_meta",
    "reference_segment_size",
    "reference_segment_stats",
    "reference_estimate_work",
    "reference_breakdown",
]


@dataclass(frozen=True)
class ReferenceMeta:
    """Seed ``UnitMeta``: the metadata slice the scalar models consume."""

    size: int
    stats: TextStats
    n_members: int = 1


def tokens_in(stats: TextStats, n_bytes: int) -> int:
    """Seed ``TextStats.tokens_in``, verbatim."""
    text_bytes = n_bytes * (1.0 - stats.markup_fraction)
    return int(text_bytes / (stats.avg_word_len + 1.0))  # +1 for separator


def sentences_in(stats: TextStats, n_bytes: int) -> int:
    """Seed ``TextStats.sentences_in``, verbatim."""
    return max(1, int(tokens_in(stats, n_bytes) / stats.avg_sentence_words)) if n_bytes else 0


def reference_segment_size(members: Sequence[VirtualFile]) -> int:
    """Seed ``Segment.size``, verbatim."""
    return sum(m.size for m in members)


def reference_segment_stats(members: Sequence[VirtualFile]) -> TextStats:
    """Seed ``Segment.stats()``, verbatim."""
    total = reference_segment_size(members)
    if total == 0:
        return TextStats()
    w = [m.size / total for m in members]
    return TextStats(
        avg_word_len=sum(wi * m.stats.avg_word_len for wi, m in zip(w, members)),
        avg_sentence_words=sum(
            wi * m.stats.avg_sentence_words for wi, m in zip(w, members)
        ),
        markup_fraction=sum(wi * m.stats.markup_fraction for wi, m in zip(w, members)),
    )


def reference_meta(unit) -> ReferenceMeta:
    """Seed ``as_unit_meta`` over the frozen segment aggregation."""
    if isinstance(unit, Segment):
        return ReferenceMeta(size=reference_segment_size(unit.members),
                             stats=reference_segment_stats(unit.members),
                             n_members=len(unit.members))
    if isinstance(unit, VirtualFile):
        return ReferenceMeta(size=unit.size, stats=unit.stats, n_members=1)
    raise TypeError(f"not a processable unit: {type(unit).__name__}")


# -- estimate_work --------------------------------------------------------

def _grep_estimate(app: GrepApplication, units) -> WorkAccount:
    work = WorkAccount()
    for u in units:
        work.files_opened += 1
        work.bytes_read += u.size
        est_matches = int(u.size * app.expected_hit_rate)
        work.matches += est_matches
        # grep emits the whole matching line (~80 B typical line).
        work.output_bytes += est_matches * 80
    work.validate()
    return work


def _pos_estimate(app: PosTaggerApplication, units) -> WorkAccount:
    work = WorkAccount()
    for u in units:
        tokens = tokens_in(u.stats, u.size)
        sents = sentences_in(u.stats, u.size)
        avg_len = max(1.0, u.stats.avg_sentence_words)
        work.files_opened += 1
        work.bytes_read += u.size
        work.tokens += tokens
        work.sentences += sents
        # sum over sentences of L^e  ≈  n_sent * avg_len^e = tokens * avg_len^(e-1)
        work.context_ops += tokens * avg_len ** (CONTEXT_EXPONENT - 1.0)
        work.output_bytes += int(tokens * (u.stats.avg_word_len + 4))
    work.validate()
    return work


def _extract_estimate(app: ExtractorApplication, units) -> WorkAccount:
    work = WorkAccount()
    for u in units:
        work.files_opened += 1
        work.bytes_read += u.size
        visible = 1.0 - u.stats.markup_fraction
        work.output_bytes += int(u.size * visible)
    work.validate()
    return work


def reference_estimate_work(app, units) -> WorkAccount:
    """The seed ``app.estimate_work(units)`` for any of the three apps."""
    if isinstance(app, GrepApplication):
        return _grep_estimate(app, units)
    if isinstance(app, PosTaggerApplication):
        return _pos_estimate(app, units)
    if isinstance(app, ExtractorApplication):
        return _extract_estimate(app, units)
    raise TypeError(f"no reference for {type(app).__name__}")


# -- breakdown ------------------------------------------------------------

def _grep_breakdown(p: GrepCostProfile, units, matches: int) -> TimeBreakdown:
    n_files = 0
    n_bytes = 0
    for u in units:
        n_files += 1
        n_bytes += u.size
    io = n_files * p.per_file_overhead + n_bytes / p.stream_bandwidth
    cpu = n_bytes * p.cpu_per_byte + matches * p.cpu_per_match
    return TimeBreakdown(setup=0.0, io=io, cpu=cpu)


def reference_memory_penalty(p: PosCostProfile, size: int) -> float:
    """Seed ``PosCostProfile.memory_penalty``, verbatim."""
    if size <= p.mem_penalty_knee:
        return 1.0
    return min(p.mem_penalty_cap,
               1.0 + p.mem_penalty_rate * log2(size / p.mem_penalty_knee))


def _pos_breakdown(p: PosCostProfile, units, matches: int) -> TimeBreakdown:
    io = 0.0
    cpu = 0.0
    for u in units:
        tokens = tokens_in(u.stats, u.size)
        avg_len = max(1.0, u.stats.avg_sentence_words)
        ctx_ops = tokens * avg_len ** (CONTEXT_EXPONENT - 1.0)
        unit_cpu = tokens * p.per_token + ctx_ops * p.per_context_op
        cpu += unit_cpu * reference_memory_penalty(p, u.size)
        io += p.per_file_overhead + u.size / p.local_read_bandwidth
    return TimeBreakdown(setup=0.0, io=io, cpu=cpu)


def _extract_breakdown(p: ExtractCostProfile, units, matches: int) -> TimeBreakdown:
    io = 0.0
    cpu = 0.0
    for u in units:
        visible = 1.0 - u.stats.markup_fraction
        io += p.per_file_overhead + u.size / p.stream_bandwidth
        io += u.size * visible * p.write_per_byte
        cpu += u.size * p.parse_per_byte
    return TimeBreakdown(setup=0.0, io=io, cpu=cpu)


def reference_breakdown(profile, units, *, matches: int = 0) -> TimeBreakdown:
    """The seed ``profile.breakdown(units, matches=...)`` for any profile."""
    if isinstance(profile, GrepCostProfile):
        return _grep_breakdown(profile, units, matches)
    if isinstance(profile, PosCostProfile):
        return _pos_breakdown(profile, units, matches)
    if isinstance(profile, ExtractCostProfile):
        return _extract_breakdown(profile, units, matches)
    raise TypeError(f"no reference for {type(profile).__name__}")
