"""Geometry of two interleaved periodic blocks on the infinite chain, and
its lag multiplicities.

Block A and block B each consist of m subblocks of s consecutive sites,
laid out alternately (A, B, A, B, ...) from site 0 with d unused sites
between consecutive subblocks; m = 1 is the ordinary contiguous two-block
arrangement.  A layout's lag multiplicities are its intra counts, the
site pairs at lag l within block A (block B has the same counts), and its
cross counts, the pairs at lag l between A and B, on lags 0..span - 1;
they do not depend on the coupling.  `subblock_pairs` counts subblock
pairs in closed form; `_spikes` gives each layout's counts as the double
cumulative sums of O(m) integer spikes, a rule of their index that the
moments apply run by run against the table's head sums; `lag_count_array`
is the direct pair count they are checked against.
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


def layout_columns(layouts) -> tuple[np.ndarray, ...]:
    """m, s, d and span of each (m, s, d) row of `layouts`, as int arrays."""
    m, s, d = np.asarray(layouts, dtype=np.int64).reshape(-1, 3).T
    return m, s, d, 2 * m * s + (2 * m - 1) * d


def _spikes(m, s, d, start=0, stop=None) -> tuple[np.ndarray, np.ndarray]:
    """Spikes start..stop - 1 (by default all 3 max(m) + 1) of layouts with
    columns m, s, d: int lags and float weights, each of shape
    (2, stop - start, layouts), whose double cumulative sums are each
    layout's intra counts (first index 0) and cross counts (first index 1).

    Two runs of s sites whose starts differ by D share s - |k| pairs at lag
    |D + k| for |k| < s: a tent of height s over lag D.  The runs
    t = 1..2m - 1 subblocks apart, D = t*(s + d) > 0, number
    `subblock_pairs`(m)[t] and pair A-A for even t, A-B for odd t.  A tent
    is the double cumulative sum of the spikes +1, -2, +1 at D - s + 1,
    D + 1 and D + s + 1, and the m runs paired with themselves, folded onto
    lags >= 0, that of the spikes m*s, -2m, -m*s, +2m at 0, 1, 2, s + 1.
    Spike j of the cross half is spike j mod 3 of tent t = 2 (j div 3) + 1,
    and of the intra half, past the fold's first three, spike (j - 4) mod 3
    of tent t = 2 ((j - 4) div 3) + 2 (the fold's +2m is tent 0's last),
    weighted max(2m - t, 0): a layout's own 3m + 1 spikes a half, then
    weight 0.  Every weight is an integer of magnitude at most 2 span (m*s
    or 4m at most), below 2^26 for any span up to `MAX_TABLE_LAGS`, every
    spike of nonzero weight lies at lag span + 1 or below, and past it
    each half's double cumulative sum is 0.
    """
    if stop is None:
        stop = 3 * int(m.max()) + 1
    # each half's tent t and the spike k of it, intra past the fold
    t, k = np.divmod(np.arange(start, stop) - ((4,), (0,)), 3)
    t = 2 * t + ((2,), (1,))
    lags = t[..., None] * (s + d) + ((k - 1)[..., None] * s + 1)
    weights = np.maximum(2.0 * m - t[..., None], 0.0)
    weights *= np.array((1.0, -2.0, 1.0))[k, None]
    if start < 3:
        lags[0, :3 - start] = np.arange(3)[start:stop, None]
        weights[0, :3 - start] = np.array((m * s, -2 * m, -m * s))[start:stop]
    return lags, weights


def lag_count_array(x, y) -> np.ndarray:
    """counts[l] = number of pairs (i in x, j in y) with |i - j| = l, for
    l up to the largest lag: the direct O(|x|*|y|) count."""
    xa = np.asarray(x, dtype=np.int64)
    ya = np.asarray(y, dtype=np.int64)
    lags = (xa[:, None] - ya[None, :]).ravel()
    return np.bincount(np.abs(lags, out=lags))

