"""Application protocol and work accounting."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from repro.vfs.files import Catalogue, Segment, TextStats, VirtualFile

__all__ = ["WorkAccount", "AppResult", "UnitMeta", "UnitColumns", "Units", "running_total",
           "TextApplication", "Unit"]

#: A processable unit: either an original file or a reshaped segment.
Unit = Union[VirtualFile, Segment]


@dataclass
class WorkAccount:
    """Deterministic work counters for one application run.

    Wall-clock time on EC2 is noisy and machine-dependent; work counters are
    exact and portable.  The cost profiles in :mod:`repro.apps.profiles`
    convert them to reference seconds, and instance heterogeneity is applied
    on top by the cloud simulator.
    """

    files_opened: int = 0
    bytes_read: int = 0
    tokens: int = 0
    sentences: int = 0
    matches: int = 0
    output_bytes: int = 0
    context_ops: float = 0.0  # superlinear per-sentence tagger work

    def __add__(self, other: "WorkAccount") -> "WorkAccount":
        return WorkAccount(
            files_opened=self.files_opened + other.files_opened,
            bytes_read=self.bytes_read + other.bytes_read,
            tokens=self.tokens + other.tokens,
            sentences=self.sentences + other.sentences,
            matches=self.matches + other.matches,
            output_bytes=self.output_bytes + other.output_bytes,
            context_ops=self.context_ops + other.context_ops,
        )

    def validate(self) -> None:
        """Reject negative counters (corrupted accounting)."""
        for name in ("files_opened", "bytes_read", "tokens", "sentences",
                     "matches", "output_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"negative work counter {name}")
        if self.context_ops < 0:
            raise ValueError("negative context_ops")


@dataclass
class AppResult:
    """Outcome of a native run: exact work plus application outputs."""

    work: WorkAccount
    outputs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class UnitMeta:
    """The metadata slice of a unit that cost models consume."""

    size: int
    stats: TextStats
    n_members: int = 1

    def __post_init__(self) -> None:
        if self.size < 0 or self.n_members < 0:
            raise ValueError("unit metadata must be non-negative")


@dataclass(eq=False)
class UnitColumns:
    """The units of one run as cost-model columns, one array per field.

    The cost models price a whole bin at once from these columns instead
    of looping over per-unit objects; row ``i`` is unit ``i``'s size,
    aggregate text statistics and member count.  The columns keep their
    source units in ``rows`` and iterate as them, so a caller that prices
    the same units more than once can build the columns once and pass them
    wherever the units themselves went.  Columns of a :class:`Catalogue`
    keep the catalogue itself as ``rows``, so its files are built only if
    something iterates them.
    """

    size: np.ndarray                # int64 bytes
    avg_word_len: np.ndarray        # float64
    avg_sentence_words: np.ndarray  # float64
    markup_fraction: np.ndarray     # float64
    n_members: np.ndarray           # int64
    rows: Sequence[Unit | UnitMeta] = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.size)

    def __iter__(self) -> Iterator[Unit | UnitMeta]:
        return iter(self.rows)

    def __getitem__(self, index):
        """A slice gives columns (:meth:`take`); a position gives its row."""
        return self.take(index) if isinstance(index, slice) else self.rows[index]

    @property
    def volume(self) -> int:
        """Total bytes of the units."""
        return int(self.size.sum())

    @classmethod
    def of(cls, units: Units) -> UnitColumns:
        """Columns of files, segments or :class:`UnitMeta` rows (in order).

        An existing :class:`UnitColumns` is returned as is, and a
        :class:`Catalogue` hands over its own columns; any other element
        type raises :class:`TypeError`.
        """
        if isinstance(units, UnitColumns):
            return units
        if isinstance(units, Catalogue):
            awl, asw, markup = units.stat_columns()
            return cls(size=units.sizes(), avg_word_len=awl,
                       avg_sentence_words=asw, markup_fraction=markup,
                       n_members=np.ones(len(units), dtype=np.int64),
                       rows=units)
        rows = tuple(units)
        sizes: list[int] = []
        stats: list[TextStats] = []
        n_members: list[int] = []
        for u in rows:
            if isinstance(u, VirtualFile):
                stats.append(u.stats)
                n_members.append(1)
            elif isinstance(u, Segment):
                stats.append(u.stats())
                n_members.append(u.n_members)
            elif isinstance(u, UnitMeta):
                stats.append(u.stats)
                n_members.append(u.n_members)
            else:
                raise TypeError(f"not a processable unit: {type(u).__name__}")
            sizes.append(u.size)
        return cls(
            size=np.array(sizes, dtype=np.int64),
            avg_word_len=np.array([s.avg_word_len for s in stats], dtype=np.float64),
            avg_sentence_words=np.array([s.avg_sentence_words for s in stats],
                                        dtype=np.float64),
            markup_fraction=np.array([s.markup_fraction for s in stats],
                                     dtype=np.float64),
            n_members=np.array(n_members, dtype=np.int64),
            rows=rows,
        )

    def take(self, index) -> UnitColumns:
        """The units at ``index`` (a slice or distinct positions), in order.

        Rows of a catalogue stay a (lazy) catalogue view.
        """
        if not isinstance(index, slice):
            index = np.asarray(index, dtype=np.intp)
        rows = self.rows
        if isinstance(rows, Catalogue):
            sub = rows.take(index)
        elif isinstance(index, slice):
            sub = tuple(rows[index])
        else:
            sub = tuple([rows[i] for i in index.tolist()])
        return UnitColumns(self.size[index], self.avg_word_len[index],
                           self.avg_sentence_words[index],
                           self.markup_fraction[index], self.n_members[index],
                           rows=sub)

    def pop(self, index: int = -1) -> Unit | UnitMeta:
        """Remove and return the unit at ``index``, as :meth:`list.pop` does.

        A plan's bins stay editable like the unit lists they hold: every
        column drops the unit's entry.
        """
        i = range(len(self))[index]  # normalises negatives, raises IndexError
        row = self.rows[i]
        rest = self.take(np.delete(np.arange(len(self)), i))
        for f in fields(self):
            setattr(self, f.name, getattr(rest, f.name))
        return row

    def tokens(self) -> np.ndarray:
        """Estimated tokens per unit: its text bytes over word length + separator."""
        text_bytes = self.size * (1.0 - self.markup_fraction)
        return (text_bytes / (self.avg_word_len + 1.0)).astype(np.int64)

    def sentences(self, tokens: np.ndarray) -> np.ndarray:
        """Estimated sentences per unit, given :meth:`tokens`: at least one
        in a non-empty unit, none in an empty one."""
        per_unit = np.maximum(1, (tokens / self.avg_sentence_words).astype(np.int64))
        return np.where(self.size > 0, per_unit, 0)


#: What the cost models accept: units of a run, or their columns.
Units = Union[UnitColumns, Iterable[Union[Unit, UnitMeta]]]


def running_total(terms: np.ndarray) -> float:
    """``0.0 + terms[0] + terms[1] + ...``, added strictly left to right.

    Bit-identical to a ``total += term`` loop: ``np.cumsum`` accumulates
    sequentially, while ``np.sum`` adds pairwise and rounds differently.
    """
    return float(np.cumsum(terms)[-1]) if len(terms) else 0.0


class TextApplication(ABC):
    """A text tool that consumes unit files and reports its work.

    Implementations guarantee that for units whose metadata is faithful,
    ``estimate_work`` approximates the counters ``run_native`` produces
    (tests pin the agreement tolerance).
    """

    name: str = "app"

    @abstractmethod
    def run_native(self, units: Sequence[Unit]) -> AppResult:
        """Materialise and actually process ``units``."""

    @abstractmethod
    def estimate_work(self, units: Units) -> WorkAccount:
        """Predict the work counters from metadata alone."""
