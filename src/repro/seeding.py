"""The fresh-copy ``SeedSequence`` helpers — the repo's spawn discipline.

``numpy.random.SeedSequence.spawn`` is **stateful**: every call advances
the parent's spawn counter, so the children a sequence produces depend
on how often it was spawned from before.  That history-dependence broke
warm-vs-cold fleet parity once already (the PR 5 state-leak fix): two
arms sharing seed objects silently derived different replication
streams.  The discipline since then — now machine-enforced by the
``RL003`` lint rule (:mod:`repro.lint`) — is that *nothing spawns from a
caller-owned sequence*.  All spawning happens here, on fresh copies, so
children are a pure function of a seed's identity (entropy and spawn
key), never of its history:

- :func:`fresh_sequence` — an unspawned copy of a sequence.
- :func:`root_sequence` — normalize ``int | tuple | SeedSequence`` user
  seeds into a fresh root.
- :func:`spawn_children` — the only sanctioned way to derive children
  from a sequence another function handed you.

The spawn helpers are pure ``SeedSequence`` arithmetic: for a sequence
whose spawn counter is still zero (the normal case — children arrive
freshly spawned), ``spawn_children(seq, n)`` returns exactly
``seq.spawn(n)`` would, so routing existing call sites through these
helpers changes no result stream.

:class:`BulkDraws` is the other half of the stream discipline: many
scalar ``Generator.integers``/``Generator.random`` draws served from
prefetched ``PCG64`` words, value- and state-identical to the scalar
calls, for proposal loops that draw thousands of small integers per
phase.  It also takes whole blocks of bounded draws as arrays
(:meth:`BulkDraws.rows`): speculate that no draw is rejected and no row
breaks the caller's layout, keep the prefix before the first row that
does, and finish that row on the scalar replay over the same cursor.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "BulkDraws",
    "fresh_sequence",
    "root_sequence",
    "spawn_children",
    "unbroken_prefix",
]


def fresh_sequence(seq: np.random.SeedSequence) -> np.random.SeedSequence:
    """An unspawned copy of ``seq`` (same entropy and spawn key)."""
    return np.random.SeedSequence(
        entropy=seq.entropy,
        spawn_key=seq.spawn_key,
        pool_size=seq.pool_size,
    )


def root_sequence(
    seed: "int | tuple | np.random.SeedSequence",
) -> np.random.SeedSequence:
    """A fresh root for a user-facing seed argument.

    Ints and entropy tuples build a new sequence; an existing
    ``SeedSequence`` is copied so the caller's spawn history cannot leak
    into the streams derived from it.
    """
    return (
        fresh_sequence(seed)
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )


def spawn_children(
    seq: np.random.SeedSequence, n_children: int
) -> list[np.random.SeedSequence]:
    """``n_children`` children of ``seq``, independent of its history.

    Spawns from a fresh copy, so calling this twice with the same
    sequence yields the *same* children — spawning becomes idempotent,
    which is exactly the property replays, resumes and multi-arm fleet
    comparisons rely on.
    """
    if n_children < 0:
        raise ValueError(f"n_children must be >= 0, got {n_children}")
    return fresh_sequence(seq).spawn(n_children)


#: Bounded draws up to this span use numpy's 32-bit Lemire path.
_SPAN32 = 1 << 32
_LOW32 = 0xFFFFFFFF
#: ``Generator.random`` scale: 53 random bits to a double in [0, 1).
_DOUBLE_SCALE = 1.0 / 9007199254740992.0
#: Shortest block :meth:`BulkDraws.rows` speculates: below it, one
#: array pass costs more than the scalar rows it would save.
_MIN_RUN = 8


def unbroken_prefix(broken: np.ndarray) -> int:
    """The number of leading ``False`` entries of a boolean mask."""
    return int(broken.argmax()) if broken.any() else len(broken)


_NO_WORDS = np.empty(0, dtype=np.uint64)


@functools.lru_cache(maxsize=256)
def _row_layout(spans: "tuple[int, ...]"):
    """``(bounded, thresholds, drawn, width)`` for one row of ``spans``.

    The spans above 1 (the draws that consume a half), their Lemire
    rejection thresholds, where they sit in the row (``None`` when every
    span draws) and the row width; ``None`` when a span leaves the
    32-bit path.  A run uses a handful of rows (grid and window sides,
    pool and fleet sizes), so the read-only layouts are memoised.
    """
    if not all(1 <= span <= _SPAN32 for span in spans):
        return None
    array = np.array(spans, dtype=np.uint64)
    drawn = array > 1
    bounded = array[drawn]
    thresholds = (_SPAN32 - bounded) % bounded
    for part in (bounded, thresholds, drawn):
        part.flags.writeable = False
    return bounded, thresholds, None if drawn.all() else drawn, len(spans)


class BulkDraws:
    """Scalar-identical ``integers``/``random`` draws from bulk words.

    ``draws.integers(low, high)`` returns exactly what
    ``int(rng.integers(low, high))`` would, and ``draws.random()``
    exactly ``float(rng.random())``, in call order; after
    :meth:`close` (or leaving the ``with`` block) ``rng`` is in exactly
    the state — the full ``bit_generator.state`` dict — the scalar calls
    would have left.  On ``PCG64`` (what ``default_rng`` and this module
    produce) the draws replay numpy's own algorithms on words prefetched
    with ``random_raw``, at a fraction of a scalar call's overhead:

    * ``next_uint32`` hands out the low half of a fresh word and keeps
      the high half buffered (``has_uint32``/``uinteger``);
    * a span ``r`` of at most ``2**32`` is reduced with Lemire's
      multiply-shift, rejecting while the low 32 bits are below
      ``(2**32 - r) % r``; a span of 1 draws nothing;
    * a double consumes one whole word, ``(w >> 11) * 2**-53``, and
      leaves the buffered half alone.

    Whole blocks of bounded draws are taken as arrays: :meth:`speculate`
    splits the words ahead of the cursor into halves in ``next_uint32``
    order (a buffered half first) and reduces a block of rows against
    their spans at once, assuming no draw is rejected; :meth:`accept`
    then moves the cursor past the rows the caller keeps.  :meth:`rows`
    is the loop on top: speculate, keep the prefix before the first
    broken row, finish that row with the scalar calls on the same
    cursor, and go on.

    :meth:`close` rewinds to the snapshot taken at open, advances by the
    words actually used and writes the buffered half back.  Any other
    bit generator, and spans above ``2**32``, go straight to the scalar
    ``rng`` calls (the generator is synced first), so one proposal loop
    serves every generator.
    """

    __slots__ = ("_rng", "_bitgen", "_snapshot", "_raw", "_words", "_pos",
                 "_used", "_words_hint", "_chunk", "_has_half", "_half",
                 "_row_halves")

    def __init__(self, rng: np.random.Generator, words: int = 256) -> None:
        self._rng = rng
        bitgen = rng.bit_generator
        self._bitgen = bitgen if type(bitgen) is np.random.PCG64 else None
        self._words_hint = max(int(words), 16)
        self._snapshot = None
        self._open()

    def __enter__(self) -> "BulkDraws":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _open(self) -> None:
        if self._bitgen is None:
            return
        state = self._bitgen.state
        self._snapshot = state
        self._has_half = bool(state["has_uint32"])
        self._half = int(state["uinteger"])
        # The prefetched words, as an array for speculation and (built
        # on first scalar use, empty until then) as a list for the
        # scalar replay.
        self._raw = _NO_WORDS
        self._words: list[int] = []
        self._pos = 0
        self._used = 0
        self._chunk = self._words_hint

    def _refill(self, need: int) -> None:
        """Make at least ``need`` unread words available at the cursor."""
        pos = self._pos
        raw = self._raw
        unread = len(raw) - pos
        # The generator is already past every prefetched word, so the
        # fresh run continues the unread ones.
        fresh = self._bitgen.random_raw(max(self._chunk, need - unread))
        self._chunk *= 2
        self._used += pos
        self._pos = 0
        self._raw = np.concatenate((raw[pos:], fresh)) if unread else fresh
        self._words = []

    def _next_word(self) -> int:
        pos = self._pos
        words = self._words
        if pos >= len(words):
            if pos == len(self._raw):
                self._refill(1)
                pos = 0
            words = self._words = self._raw.tolist()
        self._pos = pos + 1
        return words[pos]

    def _next_uint32(self) -> int:
        if self._has_half:
            self._has_half = False
            return self._half
        word = self._next_word()
        self._half = word >> 32
        self._has_half = True
        return word & _LOW32

    def integers(self, low: int, high: int) -> int:
        """``int(rng.integers(low, high))``, drawn from the bulk words."""
        span = high - low
        if not 1 < span <= _SPAN32 or self._bitgen is None:
            if span == 1 and self._bitgen is not None:
                return low
            return self._scalar(lambda: int(self._rng.integers(low, high)))
        product = self._next_uint32() * span
        leftover = product & _LOW32
        if leftover < span:
            # Lemire rejection: rare, except for spans near 2**32.
            threshold = (_SPAN32 - span) % span
            while leftover < threshold:
                product = self._next_uint32() * span
                leftover = product & _LOW32
        return low + (product >> 32)

    def random(self) -> float:
        """``float(rng.random())``, drawn from the bulk words."""
        if self._bitgen is None:
            return float(self._rng.random())
        return (self._next_word() >> 11) * _DOUBLE_SCALE

    def speculate(
        self, spans: "Sequence[int]", n_rows: int
    ) -> "tuple[np.ndarray, np.ndarray] | None":
        """The next ``n_rows`` rows of ``integers(0, span)`` draws, not yet taken.

        One row draws once per entry of ``spans``, in order.  Returns
        ``(values, rejected)``: ``values[i, j]`` is what row ``i``'s
        ``j``-th draw returns if no earlier draw of the block was
        rejected, and ``rejected[i]`` marks the rows where Lemire rejects
        a draw — from the first of those on, the layout no longer holds.
        The cursor does not move until :meth:`accept`.  ``None`` when
        the block has no array form: another bit generator, or a span
        outside ``[1, 2**32]``.
        """
        layout = self._layout(spans)
        if layout is None:
            return None
        bounded, thresholds, drawn, width = layout
        per_row = len(bounded)
        self._row_halves = per_row
        if not per_row or not n_rows:
            return (
                np.zeros((n_rows, width), dtype=np.int64),
                np.zeros(n_rows, dtype=bool),
            )
        product = self._halves(n_rows * per_row).reshape(n_rows, per_row) * bounded
        rejected = ((product & _LOW32) < thresholds).any(axis=1)
        reduced = (product >> 32).view(np.int64)
        if drawn is None:
            return reduced, rejected
        values = np.zeros((n_rows, width), dtype=np.int64)
        values[:, drawn] = reduced
        return values, rejected

    def _layout(self, spans: "Sequence[int]"):
        """A row's spans as :meth:`speculate` reduces them, or ``None``."""
        return None if self._bitgen is None else _row_layout(tuple(spans))

    def _halves(self, count: int) -> np.ndarray:
        """The next ``count`` uint32 halves in ``next_uint32`` order."""
        buffered = int(self._has_half)
        n_words = (count - buffered + 1) // 2
        if len(self._raw) - self._pos < n_words:
            self._refill(n_words)
        words = self._raw[self._pos : self._pos + n_words]
        # Little-endian halves of each word: low, then high.
        halves = words.astype("<u8", copy=False).view("<u4")
        if not buffered:
            return halves[:count]
        stream = np.empty(count, dtype=np.uint32)
        stream[0] = self._half
        stream[1:] = halves[: count - 1]
        return stream

    def accept(self, n_rows: int) -> None:
        """Take the first ``n_rows`` rows of the last :meth:`speculate`.

        No other draw may come between the two.
        """
        count = n_rows * self._row_halves
        if not count:
            return
        if self._has_half:
            self._has_half = False
            count -= 1
        if count:
            n_words = (count + 1) // 2
            self._pos += n_words
            # The last word's high half is buffered (odd count) or was
            # handed out, which leaves numpy's stale ``uinteger`` on it.
            self._half = int(self._raw[self._pos - 1]) >> 32
            self._has_half = bool(count & 1)

    def rows(
        self,
        count: int,
        spans: "Sequence[int]",
        keep: "Callable[[np.ndarray, np.ndarray, int], int]",
        finish: "Callable[[int], None]",
        break_rate: "Callable[[int], float]",
    ) -> None:
        """Draw ``count`` rows: array blocks, repaired on the scalar replay.

        An unbroken row draws ``integers(0, span)`` for each of
        ``spans``.  ``keep(values, rejected, at)`` gets a block from
        :meth:`speculate` that starts at row ``at``, stores the rows
        before the first broken one — a rejected draw, or whatever else
        changes the caller's draws (an occupied cell, say) — and returns
        how many it kept.  ``finish(at)`` draws row ``at`` with scalar
        calls on this object: the broken row, or every row left once
        speculating no longer pays.  ``break_rate(at)`` is the caller's
        expected share of rows from ``at`` on that break for its own
        reasons; the spans' Lemire rejection rate is added to it, and
        each block is bounded by the run expected before the first
        break, ``1 / rate`` rows.
        """
        layout = self._layout(spans)
        rejection = 0.0 if layout is None else float(np.sum(layout[1])) / _SPAN32
        at = 0
        while at < count:
            rate = break_rate(at) + rejection
            size = count - at
            if rate:
                size = min(size, math.ceil(1.0 / rate))
            if layout is None or size < _MIN_RUN:
                for row in range(at, count):
                    finish(row)
                return
            kept = keep(*self.speculate(spans, size), at)
            self.accept(kept)
            at += kept
            if kept < size:
                finish(at)
                at += 1

    def _scalar(self, draw):
        """Run one scalar ``rng`` call with the generator in sync."""
        self.close()
        try:
            return draw()
        finally:
            self._open()

    def close(self) -> None:
        """Leave ``rng`` exactly where the scalar draws would have."""
        snapshot = self._snapshot
        if snapshot is None:
            return
        self._snapshot = None
        bitgen = self._bitgen
        bitgen.state = snapshot
        bitgen.advance(self._used + self._pos)
        state = bitgen.state
        state["has_uint32"] = int(self._has_half)
        state["uinteger"] = self._half
        bitgen.state = state
