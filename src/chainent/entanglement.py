"""Collective-operator covariances and the negativity-based entanglement degree.

Each block is reduced to its averaged position and momentum (the k = 0
collective mode, Q = n^{-1/2} sum q_j and likewise P).  The 4x4 covariance
of (Q_A, P_A, Q_B, P_B) is then determined by four scalars: the diagonal
second moments G, H (equal for both blocks by translation symmetry) and the
cross moments G_AB, H_AB; QP cross terms vanish in the ground state.

The entanglement degree is

    epsilon = (delta1*delta2)_0 / (delta1*delta2) - 1,

with delta1 = G - |G_AB|, delta2 = H - |H_AB| and (delta1*delta2)_0 = 1/4
for unit-normalized collective commutators.  epsilon > 0 if and only if the
partially transposed state fails to be positive; it is exactly 0 once
delta1*delta2 >= (delta1*delta2)_0 (1 - 4e-12), a relative slack, so the
verdict is the same in every normalization of Q and P.  The variance witness
Delta = 2 (G - G_AB + H + H_AB) < 2 is a sufficient but weaker entanglement
condition.

Every rule here is written once, elementwise over floats and arrays alike:
`_verdict` gives delta1, delta2, epsilon and Delta (`EntanglementResult`
takes its values from it), `_moments` the covariances of any number of
layouts under a (couplings, g/h, lags) stack of tables, `_approx` the
nearest-neighbour estimate.  `_moments` makes each layout's O(m) spikes
(`blocks._spikes`) a run within `MOMENT_CHUNK` at a time, against two
double-double head sums of each table row, with exact products and a
double-double sum per layout, so no BLAS kernel or SIMD-dependent sum enters.
A sweep calls each of them once on its whole grid, `covariance_of_blocks`
calls `_moments` on one coupling and one layout, and validate's
chain-cutoffs check `_moments` and `_verdict` once on its 17 layouts.
"""

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BlockSpec, _spikes, block_indices, layout_columns
from .correlations import CorrelationTable
from .errors import (DomainError, InvalidCovarianceError, LagBoundError,
                     _check_int, _check_real)

#: squared Heisenberg bound (delta1*delta2)_0 for [Q, P] = i
VACUUM_PRODUCT = 0.25

#: rounding slack of the separability test, relative to 4 (delta1*delta2)_0
SEPARABILITY_ATOL = 1e-12

#: most floats in one of `_moments`' arrays, at least one table row's or
#: one layout's: a block of table rows' head sums (rows x (lags + 2)), or a
#: chunk's spike terms (rows x 2 halves x spikes x layouts), where a layout
#: past it alone sums its spikes in runs within it.  It bounds the
#: moments' memory on any grid and leaves their bits alone: each layout's
#: value is its own whatever the blocks, chunks and runs.
MOMENT_CHUNK = 2**16

#: most sites of the verification-only `symplectic_form` and
#: `collective_symplectic`
MAX_VERIFY_SITES = 64


@dataclass(frozen=True)
class CollectiveCovariance:
    """The four independent entries of the collective 4x4 covariance matrix."""

    g_diag: float   # G = <Q_A^2> = <Q_B^2>
    h_diag: float   # H = <P_A^2> = <P_B^2>
    g_cross: float  # G_AB = <Q_A Q_B>
    h_cross: float  # H_AB = <P_A P_B>

    def __post_init__(self):
        # infinite only by design: the field's D_pi(0) = +inf, D_pi(L) = -inf
        for name in ("g_diag", "h_diag", "g_cross", "h_cross"):
            _check_real(name, getattr(self, name), infinite=True)
        if not (self.g_diag > 0.0 and self.h_diag > 0.0):
            raise InvalidCovarianceError(
                f"diagonal moments must be positive, got G={self.g_diag}, "
                f"H={self.h_diag}")

    def rescaled(self, q_scale: float, p_scale: float) -> "CollectiveCovariance":
        """Covariance after Q -> q_scale*Q, P -> p_scale*P on both blocks."""
        if not (_check_real("q_scale", q_scale) > 0.0
                and _check_real("p_scale", p_scale) > 0.0):
            raise DomainError("scale factors must be positive")
        return CollectiveCovariance(
            g_diag=q_scale**2 * self.g_diag,
            h_diag=p_scale**2 * self.h_diag,
            g_cross=q_scale**2 * self.g_cross,
            h_cross=p_scale**2 * self.h_cross)


def _require(valid, message: str, *values) -> None:
    """InvalidCovarianceError unless `valid` holds everywhere, with `message`
    formatted by `values` at the first element where it fails."""
    if not (valid.all() if isinstance(valid, np.ndarray) else valid):
        i = np.argmin(valid)
        raise InvalidCovarianceError(message.format(*(
            float(np.broadcast_to(value, np.shape(valid)).flat[i])
            for value in values)))


def _verdict(g, h, g_ab, h_ab, vacuum_product):
    """delta1, delta2, epsilon and Delta of covariances (G, H, G_AB, H_AB),
    elementwise over floats or arrays.  epsilon is exactly 0 where
    delta1*delta2 >= (delta1*delta2)_0 (1 - 4 `SEPARABILITY_ATOL`), which
    absorbs rounding at the boundary in any convention."""
    with np.errstate(all="ignore"):     # arrays warn at inf - inf and 1/0
        d1, d2 = g - abs(g_ab), h - abs(h_ab)
        product = d1 * d2
        try:
            ratio = vacuum_product / product
        except ZeroDivisionError:       # a float 0; an array gives inf
            ratio = math.inf
        duan = 2.0 * (g - g_ab + h + h_ab)
    # a product of positive factors can underflow to 0, or overflow vac/it
    valid = (d1 > 0.0) & (d2 > 0.0) & (product > 0.0) & (ratio < math.inf)
    _require(valid, "delta1={}, delta2={} must both be positive with "
             "{}/(delta1*delta2) finite; the covariance is unphysical "
             "(upstream numerical failure)", d1, d2, vacuum_product)
    # ratio - 1 where entangled, else +-0, which + 0.0 makes 0.0
    entangled = product < vacuum_product * (1.0 - 4.0 * SEPARABILITY_ATOL)
    return d1, d2, (ratio - 1.0) * entangled + 0.0, duan


@dataclass(frozen=True)
class EntanglementResult:
    """Negativity of `cov`, whose `_verdict` gives epsilon, delta1, delta2
    and Delta; `vacuum_product` is the squared Heisenberg bound of [Q, P] in
    the covariance's convention (n^2/4 for plain sums)."""

    cov: CollectiveCovariance
    vacuum_product: float = VACUUM_PRODUCT

    def __post_init__(self):
        vac = _check_real("vacuum_product", self.vacuum_product)
        if not vac > 0.0:
            raise DomainError(f"vacuum_product must be positive, got {vac}")
        object.__setattr__(self, "vacuum_product", vac)
        # Delta = <(Q_A - Q_B)^2> + <(P_A + P_B)^2> below 2 is entanglement
        c = self.cov
        vars(self).update(zip(("delta1", "delta2", "epsilon", "duan"),
                              _verdict(c.g_diag, c.h_diag, c.g_cross,
                                       c.h_cross, vac)))

    @property
    def separable(self) -> bool:
        return self.epsilon == 0.0

    @property
    def entangled(self) -> bool:
        return not self.separable


def _head_sums(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """P2[p] = sum_{q < p} sum_{l < q} f_l of each row f of `rows`, shape
    (rows, lags), in double-double: hi split by Veltkamp into two halves of
    at most 26 bits, and lo, each of shape (rows, lags + 2) and indexed by
    p = 0..lags + 1 (two zeros ahead of the first lag).

    Each head sum is the float cumsum plus the cumsum of its steps' exact
    TwoSum errors, P2 summing P1's hi with P1's lo folded into its own
    errors.  Every operation is elementwise or a sequential cumsum along a
    row, so each row's sums are its own whatever the others.
    """
    terms = np.zeros((len(rows), rows.shape[1] + 2))
    terms[:, 2:] = rows
    virtual = np.empty_like(terms)
    lo = None
    for _ in "12":
        hi = terms.cumsum(1)
        # the exact error of hi[k] = hi[k - 1] + terms[k], by TwoSum
        before, after, error = hi[:, :-1], hi[:, 1:], virtual[:, 1:]
        np.subtract(after, before, out=error)
        terms[:, 1:] -= error
        np.subtract(after, error, out=error)
        np.subtract(before, error, out=error)
        terms[:, 1:] += error
        if lo is not None:
            terms += lo
        lo = terms.cumsum(1, out=terms)
        terms = hi
    # Veltkamp's split of hi, by 2^27 + 1
    top = hi * 134217729.0
    np.subtract(top, hi, out=virtual)
    top -= virtual
    hi -= top
    return top, hi, lo


def _products(top, bottom, lo, at, weights):
    """Each product w_j P2[at_j] under each row of the head sums (top,
    bottom, lo), as a double-double (hi, lo) of shape (rows,) + at.shape.

    top w and bottom w are exact, since |w| < 2^26 and both halves of P2's
    hi have at most 26 bits; Fast2Sum adds them exactly, and lo w joins
    the lo part.
    """
    # mode="clip" keeps every index in range: a spike past the head sums
    # pads a layout of fewer subblocks than its chunk's largest, with
    # weight 0, and it spares np.take its checked, buffered path
    high = top.take(at, 1, mode="clip")
    high *= weights
    low = bottom.take(at, 1, mode="clip")
    low *= weights
    total = high + low
    high -= total
    low += high
    lo.take(at, 1, out=high, mode="clip")
    high *= weights
    low += high
    return total, low


def _halving_tree(total, low):
    """The double-double sums over the next-to-last axis of the terms
    (total, low), each pass adding adjacent pairs (an odd last term carried
    up), hi by TwoSum and lo plainly, in place.  Each sum covers an aligned
    run of 2^k terms, so the sums of aligned runs of any power-of-two
    length, summed in turn, give the same bits; so do the terms followed
    by zeros, as TwoSum(x, 0) = (x, 0) and a carried term is it plus 0."""
    count = total.shape[-2]
    while count > 1:
        half, odd = divmod(count, 2)
        first = total[..., 0:2 * half:2, :]
        second = total[..., 1:2 * half:2, :]
        # the exact error of first + second, by TwoSum
        added = first + second
        virtual = added - first
        second -= virtual
        np.subtract(added, virtual, out=virtual)
        np.subtract(first, virtual, out=virtual)
        virtual += second
        virtual += low[..., 0:2 * half:2, :]
        virtual += low[..., 1:2 * half:2, :]
        total[..., :half, :], low[..., :half, :] = added, virtual
        if odd:
            total[..., half, :] = total[..., 2 * half, :]
            low[..., half, :] = low[..., 2 * half, :]
        count = half + odd
    return total[..., 0, :], low[..., 0, :]


def _spike_sums(top, bottom, lo, m, s, d) -> np.ndarray:
    """sum_j w_j P2[p_j] over the `blocks._spikes` of layouts with columns
    m, s, d, under each row of the head sums (top, bottom, lo) of
    `_head_sums`, rounded once, shape (rows, intra/cross, layouts): the
    `_halving_tree` of the `_products`, taken in aligned runs of spikes of
    a power-of-two length within `MOMENT_CHUNK` terms, each run's spikes
    made just before they are contracted.
    """
    count = 3 * int(m.max()) + 1
    width = 1 << max(0, (MOMENT_CHUNK // (len(top) * 2 * m.size)
                         ).bit_length() - 1)
    runs = np.empty((2, len(top), 2, -(-count // width), m.size))
    for i, start in enumerate(range(0, count, width)):
        runs[:, :, :, i] = _halving_tree(*_products(
            top, bottom, lo, *_spikes(m, s, d, start,
                                      min(start + width, count))))
    total, low = _halving_tree(*runs)
    return total + low


def _moments(gh: np.ndarray, layouts) -> np.ndarray:
    """(G, H, G_AB, H_AB) of each (m, s, d) row of `layouts`, shape
    (couplings, layouts, 4), under each coupling's stacked (g, h) rows
    `gh`, shape (couplings, 2, lags).

    A layout's counts are the double cumulative sum of its O(m)
    `blocks._spikes` and vanish past its span, so its weights w_j and
    w_j p_j sum to 0 and sum_l count_l f_l = sum_j w_j P2[p_j], where
    P2[p] = sum_{l < p - 1} (p - 1 - l) f_l is two head sums of the row f
    on the lags below the span.  `_head_sums` gives P2 in double-double on
    the lags below the longest span, for blocks of rows within
    `MOMENT_CHUNK` floats, and `_spike_sums` contracts the spikes of
    chunks of layouts within it, in grid order: each product w_j P2[p_j]
    exact, each layout's terms summed by a double-double tree, rounded
    once and then divided by n.  A layout of fewer subblocks than its
    chunk's largest ends its terms with zeros, which leave the tree's bits
    alone, so the sum depends on the layout's own terms.  Every operation is
    elementwise or a sequential cumsum from lag 0, so no BLAS kernel or
    SIMD width enters, and each value depends only on its layout and its
    rows' lags below its span: a grid gives every layout the bits it has
    alone, under any rows at least its span long.  Against the exact
    contraction of the same float rows, each column is within
    2 * 2^-53 * sum_l |count_l f_l| / n, one rounding of the sum and one
    of the division (at most 1.41 in those units, measured on layouts from
    1:1:0 to 2000:1:0 at 1 - alpha = 0.4 down to 1e-5).
    """
    layouts = np.asarray(layouts, dtype=np.int64).reshape(-1, 3)
    m, s, d, span = layout_columns(layouts)
    couplings, _, lags = gh.shape
    if span.max() > lags:
        i = span.argmax()
        raise LagBoundError(
            f"table covers lags <= {lags - 1} but spec "
            f"{m[i]}:{s[i]}:{d[i]} needs {span[i] - 1}")
    lags = int(span.max())
    rows = gh.reshape(2 * couplings, -1)[:, :lags]
    # (row, intra/cross, layout), where row = 2 coupling + g/h
    moments = np.empty((len(rows), 2, span.size))
    block = min(len(rows), max(1, MOMENT_CHUNK // (lags + 2)))
    step = max(1, MOMENT_CHUNK // (2 * (3 * int(m.max()) + 1) * block))
    for first in range(0, len(rows), block):
        sums = _head_sums(rows[first:first + block])
        for start in range(0, span.size, step):
            chunk = slice(start, start + step)
            moments[first:first + block, :, chunk] = _spike_sums(
                *sums, m[chunk], s[chunk], d[chunk])
        # free these head sums before the next block's are made
        del sums
    moments = moments.reshape(couplings, 2, 2, span.size).transpose(
        0, 3, 2, 1).reshape(couplings, span.size, 4)
    moments /= (m * s)[:, None]
    # a sum of zero terms may carry the sign of a negative weight: + 0.0
    # makes it 0.0
    moments += 0.0
    return moments


def covariance_of_blocks(table: CorrelationTable,
                         spec: BlockSpec) -> CollectiveCovariance:
    """Collective covariance of the two blocks from a correlation table.

    `_moments` reads only the table's lags below the span, so the value
    depends on the spec and those lags alone: a longer table's further lags
    move nothing, and a `chainent sweep` row equals this call on the
    sweep's table bit for bit.

    Raises LagBoundError if the table is shorter than the largest lag the
    geometry needs; the caller must rebuild it with l_max >= spec.max_lag.
    """
    gh = np.stack((table.g[:spec.span], table.h[:spec.span]))
    [[moments]] = _moments(gh[None], [(spec.m, spec.s, spec.d)]).tolist()
    return CollectiveCovariance(*moments)


def negativity(cov: CollectiveCovariance,
               vacuum_product: float = VACUUM_PRODUCT) -> EntanglementResult:
    """Entanglement degree eps from the partial-transpose criterion: the
    `EntanglementResult` of `cov` (see there for `vacuum_product`)."""
    return EntanglementResult(cov, vacuum_product)


def block_entanglement(table: CorrelationTable,
                       spec: BlockSpec) -> EntanglementResult:
    """Convenience: covariance_of_blocks followed by negativity."""
    return negativity(covariance_of_blocks(table, spec))


def approx_negativity(g0: float, g1: float, h0: float, h1: float,
                      n: int, m: int) -> float:
    """Closed-form nearest-neighbor estimate of eps for d = 0 layouts.

    Keeps only lag-0 and lag-1 correlations (adequate for couplings below
    about 0.5): within each block there are m*(s-1) nearest-neighbor pairs,
    and the blocks meet at 2m - 1 boundaries.  Returned unclamped so the
    crossover to a non-positive estimate stays visible in sweep output.
    """
    g0, g1, h0, h1 = (_check_real(name, value) for name, value in
                      (("g0", g0), ("g1", g1), ("h0", h0), ("h1", h1)))
    n, m = _check_int("n", n, 1), _check_int("m", m, 1)
    if m > n:
        raise DomainError(f"need 1 <= m <= n, got m={m}, n={n}")
    return float(_approx(g0, g1, h0, h1, n, m))


def _approx(g0, g1, h0, h1, n, m):
    """`approx_negativity`'s estimate and finiteness check, elementwise."""
    d1 = g0 + (2.0 - (4.0 * m - 1.0) / n) * g1
    d2 = h0 + (2.0 - 1.0 / n) * h1
    with np.errstate(all="ignore"):
        # a subnormal product is not 0 but still leaves 1/product infinite
        inverse = np.divide(1.0, 4.0 * d1 * d2)
    _require(np.isfinite(inverse), "1/(4*{}*{}) is not finite", d1, d2)
    return inverse - 1.0


def _check_verify_sites(n_sites) -> int:
    n_sites = _check_int("n_sites", n_sites, 1)
    if n_sites > MAX_VERIFY_SITES:
        raise DomainError(f"verification path is capped at N = "
                          f"{MAX_VERIFY_SITES}, got {n_sites}")
    return n_sites


def symplectic_form(n_sites: int) -> np.ndarray:
    """Direct sum of n_sites copies of [[0, 1], [-1, 0]] (qpqp... ordering).

    Verification-only: N is capped at `MAX_VERIFY_SITES`.
    """
    n_sites = _check_verify_sites(n_sites)
    return np.kron(np.eye(n_sites), [[0.0, 1.0], [-1.0, 0.0]])


def collective_symplectic(n_sites: int, spec: BlockSpec) -> np.ndarray:
    """Transformation S mapping site operators to collective-mode operators.

    The source vector is (q_0, p_0, ..., q_{N-1}, p_{N-1}); the image vector
    lists the n frequency-dependent collective pairs of block A, then of
    block B, then the untouched (q_j, p_j) pairs of uninvolved sites in
    ascending site order.  Fourier phases use each site's rank within its
    block, so the construction stays symplectic for non-contiguous blocks
    too (for contiguous blocks this differs from phases in the absolute site
    index only by a global phase per frequency).  Satisfies S^T Omega S =
    Omega with the plain (unconjugated) transpose and det S = 1.

    Verification-only: N is capped at `MAX_VERIFY_SITES`.
    """
    n_sites = _check_verify_sites(n_sites)
    if spec.span > n_sites:
        raise DomainError(
            f"spec {spec} spans {spec.span} sites, exceeding N = {n_sites}")
    a, b = block_indices(spec)
    keep = np.ones(n_sites, dtype=bool)
    keep[a] = keep[b] = False
    rest = np.flatnonzero(keep)
    n = spec.n
    # phase[k, rank] = exp(2 pi i rank k / n) / sqrt(n)
    angle = np.outer(np.arange(n), 2.0 * np.pi * np.arange(n)) / n
    phase = np.exp(1j * angle) / np.sqrt(n)
    s_mat = np.zeros((2 * n_sites, 2 * n_sites), dtype=complex)
    row = 0
    for sites, block in ((a, phase), (b, phase), (rest, np.eye(rest.size))):
        rows = row + 2 * np.arange(sites.size)
        s_mat[np.ix_(rows, 2 * sites)] = block                # Q rows over q_j
        s_mat[np.ix_(rows + 1, 2 * sites + 1)] = block.conj()  # P rows over p_j
        row += 2 * sites.size
    return s_mat
