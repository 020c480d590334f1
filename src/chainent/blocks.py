"""Geometry of two interleaved periodic blocks on the infinite chain, and
its lag multiplicities.

Block A and block B each consist of m subblocks of s consecutive sites,
laid out alternately (A, B, A, B, ...) from site 0 with d unused sites
between consecutive subblocks; m = 1 is the ordinary contiguous two-block
arrangement.  `subblock_pairs` counts subblock pairs in closed form,
`lag_counts` spreads them into a layout's lag multiplicities, and
`lag_count_array` is the direct pair count they are checked against.
"""

from dataclasses import dataclass

import numpy as np

from .correlations import MAX_TABLE_LAGS
from .errors import DomainError, _check_int


@dataclass(frozen=True, order=True)
class BlockSpec:
    """Periodic two-block layout: m subblocks x s sites, separated by d sites.

    Specs order as (m, s, d) tuples, the row order of `chainent sweep`.
    The span is at most `correlations.MAX_TABLE_LAGS`, the longest table
    the layout's lags can be read from.
    """

    m: int
    s: int
    d: int

    def __post_init__(self):
        for name, low in (("m", 1), ("s", 1), ("d", 0)):
            object.__setattr__(self, name,
                               _check_int(name, getattr(self, name), low))
        if self.span > MAX_TABLE_LAGS:
            raise DomainError(f"block spec {self} spans {self.span} sites, "
                              f"more than {MAX_TABLE_LAGS}")

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

    __str__ = as_text


def block_indices(spec: BlockSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sorted chain positions (a, b) of the two blocks, as int arrays.

    Subblock i (i = 0..2m-1) occupies the s consecutive sites from
    i*(s + d) and belongs to A for even i, to B for odd i.
    """
    starts = (spec.s + spec.d) * np.arange(2 * spec.m)
    sites = starts[:, None] + np.arange(spec.s)
    return sites[0::2].ravel(), sites[1::2].ravel()


def subblock_pairs(m: int) -> np.ndarray:
    """Ordered (A subblock, subblock) pairs t = 0..2m-1 subblocks apart, as
    an int array: m at t = 0, else 2m - t; even t pairs A-A, odd t A-B."""
    pairs = 2 * m - np.arange(2 * m)
    pairs[0] = m
    return pairs


def lag_counts(spec: BlockSpec) -> tuple[np.ndarray, np.ndarray]:
    """Lag multiplicities (intra, cross) of a layout, as float arrays.

    intra[l] counts the site pairs at lag l within block A (block B has the
    same counts), cross[l] those between A and B; both run to lag
    spec.max_lag.  They do not depend on the coupling.

    Two runs of s sites whose starts differ by D share s - |k| pairs at lag
    |D + k| for |k| < s.  This triangle is symmetric in k, so it suffices to
    spread the `subblock_pairs` t subblocks apart, |D| = t*(s + d) (even t:
    A-A, odd t: A-B): O(m*s) work, not O((m*s)^2).
    """
    s, p, length = spec.s, spec.s + spec.d, spec.max_lag + 1
    t, k = np.arange(2 * spec.m)[:, None], np.arange(1 - s, s)
    lags = np.abs(p * t + k) + length * (t % 2)
    weights = subblock_pairs(spec.m)[:, None] * (s - np.abs(k))
    counts = np.bincount(lags.ravel(), weights.ravel(), 2 * length)
    return counts[:length], counts[length:]


def lag_count_array(x, y) -> np.ndarray:
    """counts[l] = number of pairs (i in x, j in y) with |i - j| = l, for
    l up to the largest lag: the direct O(|x|*|y|) count."""
    xa = np.asarray(x, dtype=np.int64)
    ya = np.asarray(y, dtype=np.int64)
    lags = (xa[:, None] - ya[None, :]).ravel()
    return np.bincount(np.abs(lags, out=lags))

