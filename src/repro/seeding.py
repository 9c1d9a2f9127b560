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
calls.  It is the Python sampler of the movement proposals and of
``GridArea.sample_distinct_cells``, and the reference the compiled
samplers (``repro_propose_rows``/``repro_distinct_cells`` in
``_kernels.c``, which draw through the generator's own ``bitgen_t``)
are tested against.

:func:`selection_cdf` serves the weighted picks
(:class:`~repro.neighborhood.movements.CombinedMovement`,
:class:`~repro.genetic.mutation.CompositeMutation`): one validated
cumulative-weight table, bisected for one uniform draw, the index and
stream state of ``Generator.choice(n, p=...)``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "BulkDraws",
    "fresh_sequence",
    "root_sequence",
    "selection_cdf",
    "spawn_children",
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


def selection_cdf(weights: Sequence[float]) -> "tuple[np.ndarray, list[float]]":
    """Normalized selection probabilities and their cumulative table.

    ``Generator.choice(n, p=probabilities)`` re-validates ``p`` on every
    call, takes its cumulative sum, divides by the last entry and bisects
    the result for one ``random()`` draw.  ``bisect_right(cdf, u)`` on
    the table returned here, for ``u = rng.random()`` (or
    :meth:`BulkDraws.random`), is the same index from the same draw.
    The last entry is exactly ``1.0``, so a draw in ``[0, 1)`` always
    bisects to a valid index.

    Raises ``ValueError`` unless the weights are finite, non-negative
    and not all zero: a NaN entry would bisect every draw to the end.
    """
    if not all(math.isfinite(weight) and weight >= 0 for weight in weights) or (
        sum(weights) <= 0
    ):
        raise ValueError("weights must be finite, non-negative and not all zero")
    total = float(sum(weights))
    probabilities = np.array([weight / total for weight in weights])
    cdf = np.cumsum(probabilities)
    cdf /= cdf[-1]
    return probabilities, cdf.tolist()


#: Bounded draws up to this span use numpy's 32-bit Lemire path.
_SPAN32 = 1 << 32
_LOW32 = 0xFFFFFFFF
#: ``Generator.random`` scale: 53 random bits to a double in [0, 1).
_DOUBLE_SCALE = 1.0 / 9007199254740992.0


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

    :meth:`close` rewinds to the snapshot taken at open, advances by the
    words actually used and writes the buffered half back.  Any other
    bit generator, and spans above ``2**32``, go straight to the scalar
    ``rng`` calls (the generator is synced first), so one proposal loop
    serves every generator.
    """

    __slots__ = ("_rng", "_bitgen", "_snapshot", "_words", "_pos", "_used",
                 "_chunk", "_has_half", "_half")

    def __init__(self, rng: np.random.Generator, words: int = 256) -> None:
        self._rng = rng
        bitgen = rng.bit_generator
        self._bitgen = bitgen if type(bitgen) is np.random.PCG64 else None
        self._chunk = max(int(words), 16)
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
        # The prefetched words; ``_used`` counts those of earlier runs.
        self._words: list[int] = []
        self._pos = 0
        self._used = 0

    def _next_word(self) -> int:
        pos = self._pos
        words = self._words
        if pos == len(words):
            # The generator is already past every prefetched word.
            self._used += pos
            words = self._words = self._bitgen.random_raw(self._chunk).tolist()
            self._chunk *= 2
            pos = 0
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
