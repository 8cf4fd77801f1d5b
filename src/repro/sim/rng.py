"""Named, reproducible random-number streams.

Every stochastic component of the reproduction (page sizes, popularity
ranks, request times, server pools, subscription quality noise,
topology, ...) draws from its own named stream.  Streams are derived
from a single root seed with :class:`numpy.random.SeedSequence` spawned
by a stable hash of the stream name, so:

* two runs with the same root seed produce identical traces, and
* adding a new consumer of randomness does not perturb existing streams
  (unlike sharing one generator, where an extra draw shifts everything
  downstream).
"""

from __future__ import annotations

import hashlib
from itertools import chain, repeat
from typing import Dict, Iterator

import numpy as np

#: Draws :func:`uniform_draws` takes from its generator at a time.
_BLOCK = 1024


def _stable_key(name: str) -> int:
    """Map a stream name to a stable 64-bit integer (runs, machines alike)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def uniform_draws(generator: np.random.Generator) -> Iterator[float]:
    """``float(generator.random())``, endlessly, drawn a block at a time.

    ``Generator.random(n)`` produces bit-for-bit the doubles of ``n``
    scalar ``random()`` calls, so the floats handed out are exactly the
    per-draw sequence at about a tenth of its cost.  The generator is
    left up to a block ahead of what was handed out: use this only on a
    stream with one consumer that reads it through nothing else.
    """
    return chain.from_iterable(
        generator.random(_BLOCK).tolist() for _ in repeat(None)
    )


class RandomStreams:
    """A factory of independent :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always yields the same underlying stream object,
        so sequential draws from one component stay sequential.
        """
        generator = self._streams.get(name)
        if generator is None:
            sequence = np.random.SeedSequence([self.seed, _stable_key(name)])
            generator = np.random.default_rng(sequence)
            self._streams[name] = generator
        return generator

    def fork(self, salt: int) -> "RandomStreams":
        """Derive an independent family of streams (e.g. per replica)."""
        return RandomStreams(seed=(self.seed * 1_000_003 + int(salt)) & 0x7FFFFFFF)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RandomStreams(seed={self.seed}, streams={sorted(self._streams)})"
