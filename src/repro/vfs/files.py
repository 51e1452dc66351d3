"""Virtual files, segments and catalogues."""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.packing.bins import Item
from repro.sim.random import RngStream, stable_seed

__all__ = ["TextStats", "VirtualFile", "Segment", "Catalogue"]


@dataclass(frozen=True)
class TextStats:
    """Summary text statistics carried as file metadata.

    These drive the POS tagger's work estimate without materialising bytes:
    ``avg_sentence_words`` is the paper's key complexity parameter ("average
    sentence length is an important parameter for POS tagging", §5.2) and
    ``avg_word_len`` converts bytes to token counts
    (:meth:`repro.apps.base.UnitColumns.tokens`).
    """

    avg_word_len: float = 5.0
    avg_sentence_words: float = 18.0
    markup_fraction: float = 0.0  # fraction of bytes that is HTML markup

    def __post_init__(self) -> None:
        if self.avg_word_len <= 0 or self.avg_sentence_words <= 0:
            raise ValueError("text statistics must be positive")
        if not 0.0 <= self.markup_fraction < 1.0:
            raise ValueError("markup fraction must be in [0, 1)")


@dataclass(frozen=True)
class VirtualFile:
    """One corpus file: metadata always available, bytes generated on demand.

    ``content_seed`` plus the (pluggable) generator make materialisation
    deterministic: the same file always renders to the same bytes.
    """

    path: str
    size: int
    stats: TextStats = field(default_factory=TextStats)
    content_seed: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"file {self.path!r} has negative size")

    # -- packing interop ---------------------------------------------------

    def as_item(self) -> Item:
        """Packing-layer view of this file."""
        return Item(key=self.path, size=self.size)

    # -- materialisation ---------------------------------------------------

    def materialize(self, renderer: Callable[["VirtualFile"], bytes] | None = None) -> bytes:
        """Render this file's bytes (deterministic in ``content_seed``).

        A custom ``renderer`` may be supplied (the corpus package installs a
        realistic text renderer); the default emits seeded pseudo-text that
        honours the size exactly.
        """
        if renderer is not None:
            data = renderer(self)
        else:
            from repro.corpus.text import render_virtual_file

            data = render_virtual_file(self)
        if len(data) != self.size:
            raise ValueError(
                f"renderer produced {len(data)} bytes for {self.path!r}, expected {self.size}"
            )
        return data


@dataclass(frozen=True)
class LiteralFile(VirtualFile):
    """A virtual file with its exact bytes attached.

    Used where the *same* content must feed both the native application and
    the metadata estimator (the novels experiment, targeted unit tests).
    """

    content: bytes = b""

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.content) != self.size:
            raise ValueError(
                f"literal file {self.path!r}: content is {len(self.content)} bytes, "
                f"size says {self.size}"
            )

    @classmethod
    def from_text(cls, path: str, text: str, stats: TextStats | None = None) -> "LiteralFile":
        data = text.encode("ascii")
        return cls(path=path, size=len(data), stats=stats or TextStats(), content=data)

    def materialize(self, renderer=None) -> bytes:
        """Render this unit's exact bytes."""
        return self.content


@dataclass(frozen=True)
class Segment:
    """A reshaped unit file: the concatenation of member virtual files.

    The paper's applications "do not need to be further modified to be
    capable to consume the concatenated larger input files" (§1), so a
    segment materialises as members joined by a newline.
    """

    name: str
    members: tuple[VirtualFile, ...]
    # Derived once from the members; excluded from eq, hash and repr.
    size: int = field(init=False, repr=False, compare=False)
    _stats: TextStats = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Separator newlines between members count toward nothing in the
        # paper's accounting; keep size as the exact member sum.
        total = sum(m.size for m in self.members)
        object.__setattr__(self, "size", total)
        object.__setattr__(self, "_stats", _volume_weighted(self.members, total))

    @property
    def n_members(self) -> int:
        return len(self.members)

    def stats(self) -> TextStats:
        """Volume-weighted aggregate statistics of the members."""
        return self._stats

    def materialize(self) -> bytes:
        """Render this unit's exact bytes."""
        return b"\n".join(m.materialize() for m in self.members) if self.members else b""


def _volume_weighted(members: Sequence[VirtualFile], total: int) -> TextStats:
    """Members' statistics averaged with weights ``size / total``.

    Summed with the builtin :func:`sum`, whose float rounding differs
    between Python versions (compensated from 3.12), so a segment's
    statistics match what the interpreter's own ``sum`` gives.  Plain
    lists beat numpy here: extracting the members' attributes dominates.
    """
    if total == 0:
        return TextStats()
    w = [m.size / total for m in members]
    return TextStats(
        avg_word_len=sum([wi * m.stats.avg_word_len for wi, m in zip(w, members)]),
        avg_sentence_words=sum(
            [wi * m.stats.avg_sentence_words for wi, m in zip(w, members)]),
        markup_fraction=sum([wi * m.stats.markup_fraction for wi, m in zip(w, members)]),
    )


def _require_unique(paths: list[str]) -> None:
    """Raise on the first path that occurs twice."""
    if len(set(paths)) != len(paths):
        seen: set[str] = set()
        for p in paths:
            if p in seen:
                raise ValueError(f"duplicate path in catalogue: {p!r}")
            seen.add(p)


def _positions(index, n: int) -> np.ndarray:
    """``index`` (a slice or positions into ``n`` rows) as distinct,
    non-negative positions; a position out of range raises
    :class:`IndexError`."""
    positions = np.arange(n, dtype=np.intp)[index]
    # bincount, not np.unique: a linear pass, where unique sorts or hashes.
    if (not isinstance(index, slice) and len(positions)
            and np.bincount(positions).max() > 1):
        raise ValueError("catalogue positions must be distinct")
    return positions


@dataclass(frozen=True, eq=False)
class _RowRule:
    """How a lazy catalogue's rows come from other catalogues' rows.

    Row ``i`` is row ``index[i]`` of ``parts`` laid end to end (row ``i``
    itself when ``index`` is ``None``).  Without a ``seed_tag`` that row
    is shared as is; with one, a derived file is built from it: path
    ``prefix + path``, content seed ``stable_seed(seed, seed_tag)``, and
    the source's stats, with markup dropped when ``strip_markup``.
    """

    parts: tuple["Catalogue", ...]
    index: np.ndarray | None = None
    prefix: str = ""
    seed_tag: str | None = None
    strip_markup: bool = False

    def source(self, i: int) -> VirtualFile:
        """The part row that row ``i`` is or derives from."""
        j = i if self.index is None else int(self.index[i])
        for part in self.parts:
            if j < len(part):
                return part[j]
            j -= len(part)
        raise IndexError(i)

    def derive(self, f: VirtualFile, size: int) -> VirtualFile:
        """The derived file of source row ``f`` (only with a ``seed_tag``)."""
        stats = f.stats
        if self.strip_markup and stats.markup_fraction > 0:
            stats = TextStats(stats.avg_word_len, stats.avg_sentence_words, 0.0)
        return VirtualFile(self.prefix + f.path, size, stats,
                           stable_seed(f.content_seed, self.seed_tag))

    def gather(self, columns: list):
        """Per-part columns laid end to end, then gathered by ``index``."""
        col = columns[0] if len(columns) == 1 else (
            np.concatenate(columns) if isinstance(columns[0], np.ndarray)
            else [x for c in columns for x in c])
        if self.index is None:
            return col
        if isinstance(col, np.ndarray):
            return col[self.index]
        return [col[j] for j in self.index.tolist()]


class Catalogue:
    """Ordered, immutable collection of virtual files, held as columns.

    Supports the operations the experiments need: totals, slicing by count
    or by volume (probe construction, §4), random volume samples without
    replacement (§5.1/§5.2 refits), and size histograms (Fig. 1).

    A catalogue holds an ``int64`` size column and ``float64`` text-stats
    columns (:meth:`stat_columns`).  Built from files, it keeps them as
    its rows and extracts the stats columns on first use.  Built by
    :meth:`derive`, :meth:`take` or :meth:`concat`, it holds columns and
    a rule, and builds a row (a :class:`VirtualFile`) only when one is
    asked for: iteration or indexing, and so before a file's
    ``materialize()``.  A built row is cached, so ``cat[i] is cat[i]``.
    Paths are unique by construction.
    """

    def __init__(self, files: Iterable[VirtualFile], name: str = "catalogue") -> None:
        rows = list(files)
        paths = [f.path for f in rows]
        _require_unique(paths)
        self._setup(name, np.array([f.size for f in rows], dtype=np.int64),
                    rows=rows, paths=paths)

    def _setup(self, name: str, sizes: np.ndarray, *,
               rows: list[VirtualFile] | None = None,
               rule: _RowRule | None = None,
               paths: list[str] | None = None,
               stats: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
               ) -> None:
        self.name = name
        self._sizes = sizes
        self._total = int(sizes.sum())
        self._rows = rows                       # every row, once all are built
        self._built: dict[int, VirtualFile] = {}  # rows built one at a time
        self._rule = rule
        self._paths = paths
        self._stats = stats
        self._cum: np.ndarray | None = None
        self._fingerprint: str | None = None

    @classmethod
    def _of(cls, name: str, sizes: np.ndarray, **kwargs) -> "Catalogue":
        cat = cls.__new__(cls)
        cat._setup(name, sizes, **kwargs)
        return cat

    # -- basics ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sizes)

    def __iter__(self) -> Iterator[VirtualFile]:
        return iter(self._all_rows())

    def __getitem__(self, idx):
        if self._rows is not None:
            return self._rows[idx]
        if isinstance(idx, slice):
            return [self[i] for i in range(len(self))[idx]]
        i = range(len(self))[idx]  # normalises negatives, raises IndexError
        f = self._built.get(i)
        if f is None:
            f = self._build(i)
            self._built[i] = f
        return f

    def _build(self, i: int) -> VirtualFile:
        rule = self._rule
        f = rule.source(i)
        return f if rule.seed_tag is None else rule.derive(f, int(self._sizes[i]))

    def _all_rows(self) -> list[VirtualFile]:
        """Every row, built in one pass over the parts' rows (which this
        builds too); rows built one at a time before are kept."""
        if self._rows is None:
            rule = self._rule
            rows = rule.gather([p._all_rows() for p in rule.parts])
            if rule.seed_tag is not None:
                built = self._built
                rows = [built.get(k) or rule.derive(f, n)
                        for k, (f, n) in enumerate(zip(rows, self._sizes.tolist()))]
            self._rows = rows
            self._built = {}
        return self._rows

    @property
    def files(self) -> Sequence[VirtualFile]:
        return tuple(self._all_rows())

    @property
    def total_size(self) -> int:
        return self._total

    @property
    def max_file_size(self) -> int:
        return int(self._sizes.max()) if len(self) else 0

    def items(self) -> list[Item]:
        """Packing items for every file, in order."""
        return [f.as_item() for f in self]

    def sizes(self) -> np.ndarray:
        """File sizes in catalogue order as a cached ``np.int64`` column.

        This is the packing engine's fast path: the ``*_layout`` kernels
        consume it directly, so reshaping and provisioning never materialise
        per-file :class:`Item` dataclasses.  Treat the array as read-only.
        """
        return self._sizes

    def paths(self) -> list[str]:
        """File paths in catalogue order, built once without building rows."""
        if self._paths is None:
            if self._rows is not None:
                self._paths = [f.path for f in self._rows]
            else:
                rule = self._rule
                paths = rule.gather([p.paths() for p in rule.parts])
                if rule.seed_tag is not None:
                    paths = [rule.prefix + p for p in paths]
                self._paths = paths
        return self._paths

    def stat_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(avg_word_len, avg_sentence_words, markup_fraction)`` columns.

        Extracted from the rows on first use for a catalogue built from
        files; gathered from the source columns otherwise.  Read-only.
        """
        if self._stats is None:
            if self._rows is not None:
                stats = [f.stats for f in self._rows]
                self._stats = (
                    np.array([s.avg_word_len for s in stats], dtype=np.float64),
                    np.array([s.avg_sentence_words for s in stats], dtype=np.float64),
                    np.array([s.markup_fraction for s in stats], dtype=np.float64),
                )
            else:
                rule = self._rule
                parts = [p.stat_columns() for p in rule.parts]
                self._stats = tuple(rule.gather([c[k] for c in parts])
                                    for k in range(3))
        return self._stats

    def fingerprint(self) -> str:
        """Content hash of the size column, for packing-cache keys.

        Layouts produced by the engine's order-preserving kernels are pure
        functions of the size column, so catalogues with equal columns may
        share cached packings regardless of path names.
        """
        if self._fingerprint is None:
            import hashlib

            h = hashlib.blake2b(digest_size=16)
            h.update(len(self).to_bytes(8, "little"))
            h.update(self._sizes.tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    # -- views ---------------------------------------------------------------

    def take(self, index, name: str | None = None) -> "Catalogue":
        """The files at ``index`` (a slice or distinct positions), in order.

        The result is a view sharing this catalogue's rows:
        ``sub[k] is self[j]``.  Repeated positions raise
        :class:`ValueError`, which keeps paths unique.
        """
        name = name if name is not None else f"{self.name}[take]"
        index = _positions(index, len(self))
        stats = (tuple(c[index] for c in self._stats)
                 if self._stats is not None else None)
        return Catalogue._of(name, self._sizes[index], stats=stats,
                             rule=_RowRule((self,), index))

    def derive(self, index, sizes: np.ndarray, *, prefix: str, seed_tag: str,
               strip_markup: bool = False, name: str) -> "Catalogue":
        """Files derived from the files at ``index``, with sizes ``sizes``.

        Derived file ``k`` of source file ``f = self[index[k]]`` has path
        ``prefix + f.path``, content seed ``stable_seed(f.content_seed,
        seed_tag)`` and ``f``'s stats (markup zeroed when
        ``strip_markup``).  Only the columns are computed here; rows and
        seeds are built when a row is asked for.  Repeated positions raise
        :class:`ValueError`.
        """
        index = _positions(index, len(self))
        awl, asw, markup = self.stat_columns()
        markup = np.zeros(len(index)) if strip_markup else markup[index]
        return Catalogue._of(
            name, np.asarray(sizes, dtype=np.int64),
            stats=(awl[index], asw[index], markup),
            rule=_RowRule((self,), index, prefix=prefix, seed_tag=seed_tag,
                          strip_markup=strip_markup))

    # -- probe/sample construction ------------------------------------------

    def head_by_volume(self, volume: int) -> "Catalogue":
        """Smallest prefix (in original order) reaching at least ``volume``.

        This is how §4 builds ``P^V_orig``: take the data "in its original
        form" up to the requested probe volume.
        """
        if volume <= 0:
            return self.take(slice(0, 0), name=f"{self.name}[:0B]")
        if volume >= self.total_size:
            return self.take(slice(None), name=f"{self.name}[:all]")
        if self._cum is None:
            self._cum = np.cumsum(self._sizes)
        k = int(bisect.bisect_left(self._cum, volume)) + 1
        return self.take(slice(0, k), name=f"{self.name}[:{volume}B]")

    def sample_by_volume(
        self, volume: int, rng: RngStream, *, exclude: set[str] | None = None
    ) -> "Catalogue":
        """Random sample of ≈``volume`` bytes without replacement.

        Files already in ``exclude`` are never drawn, supporting the paper's
        repeated non-overlapping samples ("10 random samples (without
        replacement) of 2 GB", §5.1).
        """
        if volume < 0:
            raise ValueError("sample volume must be non-negative")
        pool = ([i for i, p in enumerate(self.paths()) if p not in exclude]
                if exclude else list(range(len(self))))
        order = list(range(len(pool)))
        rng.shuffle(order)
        sizes = self._sizes.tolist()
        picked: list[int] = []
        acc = 0
        for i in order:
            if acc >= volume:
                break
            picked.append(pool[i])
            acc += sizes[pool[i]]
        # Restore catalogue order so downstream packing sees original order.
        picked.sort()
        return self.take(picked, name=f"{self.name}[sample {volume}B]")

    def filter(self, predicate) -> "Catalogue":
        """Files satisfying ``predicate`` (original order preserved)."""
        return self.take([i for i, f in enumerate(self) if predicate(f)],
                         name=f"{self.name}[filtered]")

    def sorted_by_size(self, *, descending: bool = False) -> "Catalogue":
        """Size-ordered copy (the paper builds initial probes 'among the
        smallest' files, §4)."""
        sizes, paths = self._sizes.tolist(), self.paths()
        order = sorted(range(len(sizes)), key=lambda i: (sizes[i], paths[i]),
                       reverse=descending)
        return self.take(order, name=f"{self.name}[by-size]")

    @staticmethod
    def concat(parts: Sequence["Catalogue"], name: str = "concat") -> "Catalogue":
        """Concatenate catalogues (paths must stay globally unique).

        Each part is unique already, so paths are checked only across
        parts, on the path columns.
        """
        parts = tuple(parts)
        paths = None
        if len(parts) > 1:
            paths = [p for part in parts for p in part.paths()]
            _require_unique(paths)
        sizes = (np.concatenate([p._sizes for p in parts]) if parts
                 else np.zeros(0, dtype=np.int64))
        return Catalogue._of(name, sizes, paths=paths, rule=_RowRule(parts))

    def partition_volumes(self, n_parts: int) -> list["Catalogue"]:
        """Split into ``n_parts`` contiguous, ≈equal-volume catalogues.

        Models staging data "equally across 100 EBS storage volumes" (§5.1).
        """
        from repro.packing import uniform_layout

        layouts = uniform_layout(self._sizes.tolist(), n_bins=n_parts,
                                 preserve_order=True)
        return [self.take(l.indices, name=f"{self.name}/part{i}")
                for i, l in enumerate(layouts)]

    # -- analytics -----------------------------------------------------------

    def size_histogram(self, bin_width: int, max_size: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Frequency distribution of file sizes (Fig. 1).

        Returns ``(bin_edges, counts)`` with edges at multiples of
        ``bin_width``; sizes beyond ``max_size`` are excluded from the plot
        (the paper shows Fig. 1(a) "up to files of size 300 kB").
        """
        if bin_width <= 0:
            raise ValueError("bin width must be positive")
        sizes = self._sizes
        if max_size is not None:
            sizes = sizes[sizes <= max_size]
        if sizes.size == 0:
            return np.array([0, bin_width]), np.array([0])
        top = int(sizes.max() // bin_width + 1) * bin_width
        edges = np.arange(0, top + bin_width, bin_width)
        counts, _ = np.histogram(sizes, bins=edges)
        return edges, counts

    def describe(self) -> dict:
        """Summary row used by the dataset figures and EXPERIMENTS.md."""
        sizes = self._sizes
        if sizes.size == 0:
            return {"name": self.name, "files": 0, "total": 0}
        return {
            "name": self.name,
            "files": int(sizes.size),
            "total": int(sizes.sum()),
            "mean": float(sizes.mean()),
            "median": float(np.median(sizes)),
            "max": int(sizes.max()),
            "p90": float(np.percentile(sizes, 90)),
        }
