"""Per-file derived catalogue and two-update seed, frozen as differential oracles.

Verbatim copies of ``derived_catalogue`` (``repro.core.workflow``) and
``stable_seed`` (``repro.sim.random``) exactly as they existed before the
byte split moved to numpy and the seed hash became one call: a Python
``sorted`` ranking, one ``+= 1`` per leftover byte, and a BLAKE2b fed by
two ``update`` calls.  Only the names and imports are adjusted.
``tests/test_derived_catalogue_differential.py`` asserts ``==`` between
these and the public code.

Do not "improve" this module: its value is that it does not change.
"""

from __future__ import annotations

import hashlib

from repro.core.workflow import WorkflowStage
from repro.vfs.files import Catalogue, TextStats, VirtualFile

__all__ = ["reference_derived_catalogue", "reference_stable_seed"]


def reference_stable_seed(parent_seed: int, name: str) -> int:
    """Seed ``stable_seed``, verbatim."""
    h = hashlib.blake2b(digest_size=8)
    h.update(parent_seed.to_bytes(16, "little", signed=False))
    h.update(name.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


def reference_derived_catalogue(
    source: Catalogue, stage: WorkflowStage, seed_tag: str
) -> Catalogue:
    """Seed ``derived_catalogue``, verbatim."""
    files_in = list(source)
    target = int(source.total_size * stage.output_ratio)
    shares = [f.size * stage.output_ratio for f in files_in]
    sizes = [int(s) for s in shares]
    rem = target - sum(sizes)
    if rem and files_in:
        n = len(files_in)
        # Most-underfunded first for handing out bytes; walk the same
        # ranking backwards to claw bytes back if float error overshot.
        order = sorted(range(n), key=lambda i: sizes[i] - shares[i])
        i = 0
        while rem > 0:
            sizes[order[i % n]] += 1
            rem -= 1
            i += 1
        while rem < 0:
            j = order[-1 - (i % n)]
            if sizes[j] > 0:
                sizes[j] -= 1
                rem += 1
            i += 1
    files = []
    for f, out_size in zip(files_in, sizes):
        if out_size <= 0:
            continue
        stats = f.stats
        if stage.strips_markup and stats.markup_fraction > 0:
            stats = TextStats(avg_word_len=stats.avg_word_len,
                              avg_sentence_words=stats.avg_sentence_words,
                              markup_fraction=0.0)
        files.append(VirtualFile(
            path=f"{stage.name}/{f.path}",
            size=out_size,
            stats=stats,
            content_seed=reference_stable_seed(f.content_seed, seed_tag),
        ))
    return Catalogue(files, name=f"{source.name}->{stage.name}")
