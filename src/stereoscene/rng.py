"""Deterministic random streams with named substream derivation.

Every stochastic component takes an explicit ``SeededRng`` handle. Substreams
are derived by hashing the parent key with a label, so draws for source 0 are
unaffected by adding source 1 (stream scheme: ``blake2b(parent_key || label)``,
documented here as scheme version 1).
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


def _derive_key(parent: bytes, label: str) -> bytes:
    return hashlib.blake2b(parent + label.encode("utf-8"), digest_size=16).digest()


class SeededRng:
    """A numpy Generator wrapper with hierarchical, label-addressed substreams.

    Identical seed and identical call sequence give identical outputs
    (bit-for-bit for a fixed numpy version, which pins its stream behaviour).
    The generator is seeded on the first draw: a stream that only derives
    children never pays for it.
    """

    def __init__(self, seed: int, _key: bytes | None = None):
        self.seed = int(seed)
        if _key is None:
            _key = _derive_key(b"stereoscene.v1", str(self.seed))
        self._key = _key

    @functools.cached_property
    def _gen(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(int.from_bytes(self._key, "little")))

    def child(self, label: str) -> "SeededRng":
        """Independent substream addressed by ``label`` under this stream."""
        return SeededRng(self.seed, _key=_derive_key(self._key, label))

    # thin delegation; keep the surface small and explicit
    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def choice(self, seq):
        """One element of ``seq``, drawn as ``Generator.choice(seq)`` draws it."""
        return seq[int(self._gen.integers(0, len(seq)))]

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, key={self._key.hex()[:8]})"


def entry_seed(global_seed: int, clip_id: str) -> int:
    """Stable per-entry seed; independent of manifest ordering."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(global_seed)).encode())
    h.update(b"/")
    h.update(clip_id.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")
