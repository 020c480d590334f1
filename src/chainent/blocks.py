"""Geometry of two interleaved periodic blocks on the infinite chain.

Block A and block B each consist of m subblocks of s consecutive sites,
laid out alternately (A, B, A, B, ...) from site 0 with d unused sites
between consecutive subblocks.  m = 1 is the ordinary contiguous two-block
arrangement.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True, order=True)
class BlockSpec:
    """Periodic two-block layout: m subblocks x s sites, separated by d sites.

    Specs order as (m, s, d) tuples, the row order of `chainent sweep`.
    """

    m: int
    s: int
    d: int

    def __post_init__(self):
        for name, value, low in (("m", self.m, 1), ("s", self.s, 1),
                                 ("d", self.d, 0)):
            if value != int(value) or value < low:
                raise DomainError(
                    f"{name} must be an integer >= {low}, got {value!r}")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "s", int(self.s))
        object.__setattr__(self, "d", int(self.d))

    @property
    def n(self) -> int:
        """Sites per block."""
        return self.m * self.s

    @property
    def span(self) -> int:
        """Total extent of the layout, last occupied site + 1."""
        return 2 * self.m * self.s + (2 * self.m - 1) * self.d

    @property
    def max_lag(self) -> int:
        """Largest |i - j| between any two involved sites."""
        return self.span - 1

    def as_text(self) -> str:
        """Canonical textual form used by the CLI."""
        return f"{self.m}:{self.s}:{self.d}"

    @classmethod
    def from_text(cls, text: str) -> "BlockSpec":
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"block spec must be 'm:s:d', got {text!r}")
        try:
            m, s, d = (int(p) for p in parts)
        except ValueError:
            raise DomainError(f"block spec must be 'm:s:d' integers, got {text!r}")
        return cls(m=m, s=s, d=d)

    def __str__(self) -> str:
        return self.as_text()


@dataclass(frozen=True)
class BlockIndices:
    """Sorted chain positions of the two blocks; disjoint by construction."""

    a: tuple
    b: tuple

    def __post_init__(self):
        a, b = tuple(self.a), tuple(self.b)
        if set(a) & set(b):
            raise DomainError("blocks A and B must be disjoint")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def block_indices(spec: BlockSpec) -> BlockIndices:
    """Materialize the alternating layout starting at site 0.

    Subblock i (i = 0..2m-1) occupies s consecutive sites and belongs to A
    for even i, to B for odd i; d sites are skipped after every subblock.
    """
    a, b = [], []
    pos = 0
    for i in range(2 * spec.m):
        sites = range(pos, pos + spec.s)
        (a if i % 2 == 0 else b).extend(sites)
        pos += spec.s + spec.d
    return BlockIndices(a=tuple(a), b=tuple(b))


def lag_count_array(x, y, length: int | None = None) -> np.ndarray:
    """counts[l] = number of pairs (i in x, j in y) with |i - j| = l.

    `length` sets the minimum array length (defaults to max lag + 1).
    """
    xa = np.asarray(x, dtype=np.int64)
    ya = np.asarray(y, dtype=np.int64)
    lags = np.abs(xa[:, None] - ya[None, :]).ravel()
    return np.bincount(lags, minlength=0 if length is None else length)


def lag_multiset(x, y) -> dict:
    """Map lag |i - j| -> multiplicity over all pairs (i in x, j in y).

    Precomputing these multiplicities makes the covariance double sums cost
    O(distinct lags) instead of O(|x|*|y|) table lookups per sweep point.
    """
    counts = lag_count_array(x, y)
    return {int(l): int(c) for l, c in enumerate(counts) if c}
