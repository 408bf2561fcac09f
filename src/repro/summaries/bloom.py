"""A classic Bloom filter over string items.

Deterministic across runs (hashes derive from SHA-256, no process
randomization); sized via the standard ``m = -n ln p / (ln 2)^2``
formula.
"""

from __future__ import annotations

import functools
import hashlib
import math
from typing import Iterable

import numpy as np


class BloomFilter:
    """Bit-array Bloom filter with ``k`` double-hashed probe positions.

    Parameters
    ----------
    n_bits:
        Size of the bit array (rounded up to a multiple of 8).
    n_hashes:
        Number of probe positions per item.
    """

    def __init__(self, n_bits: int = 1024, n_hashes: int = 4) -> None:
        if n_bits <= 0:
            raise ValueError(f"n_bits must be positive, got {n_bits}")
        if n_hashes <= 0:
            raise ValueError(f"n_hashes must be positive, got {n_hashes}")
        self.n_bits = int(math.ceil(n_bits / 8) * 8)
        self.n_hashes = int(n_hashes)
        self.bits = np.zeros(self.n_bits, dtype=bool)
        self.n_items = 0

    @classmethod
    def for_capacity(
        cls, n_items: int, fp_rate: float = 0.01
    ) -> "BloomFilter":
        """Size a filter for *n_items* at a target false-positive rate."""
        if n_items <= 0:
            raise ValueError(f"n_items must be positive, got {n_items}")
        if not 0 < fp_rate < 1:
            raise ValueError(f"fp_rate must be in (0,1), got {fp_rate}")
        m = int(math.ceil(-n_items * math.log(fp_rate) / (math.log(2) ** 2)))
        k = max(1, round(m / n_items * math.log(2)))
        return cls(n_bits=m, n_hashes=k)

    @staticmethod
    @functools.lru_cache(maxsize=1 << 16)
    def _positions(item: str, n_bits: int, n_hashes: int) -> tuple:
        # Memoised: a name is hashed once per geometry, not once per
        # filter it is added to or probed against.
        digest = hashlib.sha256(item.encode("utf-8")).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:16], "big") | 1  # odd: full-period step
        return tuple((h1 + i * h2) % n_bits for i in range(n_hashes))

    def add(self, item: str) -> None:
        """Insert an item."""
        for pos in self._positions(item, self.n_bits, self.n_hashes):
            self.bits[pos] = True
        self.n_items += 1

    def update(self, items: Iterable[str]) -> None:
        """Insert many items."""
        for item in items:
            self.add(item)

    def __contains__(self, item: str) -> bool:
        bits = self.bits
        for pos in self._positions(item, self.n_bits, self.n_hashes):
            if not bits[pos]:
                return False
        return True

    @property
    def fill_ratio(self) -> float:
        """Fraction of set bits."""
        return float(self.bits.mean())

    def copy(self) -> "BloomFilter":
        dup = BloomFilter(self.n_bits, self.n_hashes)
        dup.bits = self.bits.copy()
        dup.n_items = self.n_items
        return dup

    def __repr__(self) -> str:
        return (
            f"<BloomFilter bits={self.n_bits} k={self.n_hashes} "
            f"items={self.n_items} fill={self.fill_ratio:.3f}>"
        )
