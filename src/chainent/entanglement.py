"""Collective-operator covariances and the negativity-based entanglement degree.

Each block is reduced to its averaged position and momentum (the k = 0
collective mode, Q = n^{-1/2} sum q_j and likewise P).  The 4x4 covariance
of (Q_A, P_A, Q_B, P_B) is then determined by four scalars: the diagonal
second moments G, H (equal for both blocks by translation symmetry) and the
cross moments G_AB, H_AB; QP cross terms vanish in the ground state.

The entanglement degree is

    epsilon = max(0, (delta1*delta2)_0 / (delta1*delta2) - 1),

with delta1 = G - |G_AB|, delta2 = H - |H_AB| and (delta1*delta2)_0 = 1/4
for unit-normalized collective commutators.  epsilon > 0 if and only if the
partially transposed state fails to be positive.  The variance witness
Delta = 2 (G - G_AB + H + H_AB) < 2 is a sufficient but weaker entanglement
condition.
"""

from dataclasses import dataclass

import numpy as np

from .blocks import BlockSpec, block_indices, lag_count_array
from .correlations import CorrelationTable
from .errors import DomainError, InvalidCovarianceError, LagBoundError

#: squared Heisenberg bound (delta1*delta2)_0 for [Q, P] = i
VACUUM_PRODUCT = 0.25

#: rounding slack absorbed when deciding separability from delta1*delta2
SEPARABILITY_ATOL = 1e-12


@dataclass(frozen=True)
class CollectiveCovariance:
    """The four independent entries of the collective 4x4 covariance matrix."""

    g_diag: float   # G = <Q_A^2> = <Q_B^2>
    h_diag: float   # H = <P_A^2> = <P_B^2>
    g_cross: float  # G_AB = <Q_A Q_B>
    h_cross: float  # H_AB = <P_A P_B>

    def __post_init__(self):
        if not (self.g_diag > 0.0 and self.h_diag > 0.0):
            raise InvalidCovarianceError(
                f"diagonal moments must be positive, got G={self.g_diag}, "
                f"H={self.h_diag}")

    @property
    def delta1(self) -> float:
        return self.g_diag - abs(self.g_cross)

    @property
    def delta2(self) -> float:
        return self.h_diag - abs(self.h_cross)

    def rescaled(self, q_scale: float, p_scale: float) -> "CollectiveCovariance":
        """Covariance after Q -> q_scale*Q, P -> p_scale*P on both blocks."""
        if not (q_scale > 0.0 and p_scale > 0.0):
            raise DomainError("scale factors must be positive")
        return CollectiveCovariance(
            g_diag=q_scale**2 * self.g_diag,
            h_diag=p_scale**2 * self.h_diag,
            g_cross=q_scale**2 * self.g_cross,
            h_cross=p_scale**2 * self.h_cross)


@dataclass(frozen=True)
class EntanglementResult:
    epsilon: float
    delta1: float
    delta2: float
    duan: float
    cov: CollectiveCovariance
    vacuum_product: float = VACUUM_PRODUCT

    @property
    def separable(self) -> bool:
        """Separability decided at delta1*delta2 >= (delta1*delta2)_0 - atol,
        absorbing rounding at the boundary."""
        return self.delta1 * self.delta2 >= self.vacuum_product - SEPARABILITY_ATOL

    @property
    def entangled(self) -> bool:
        return not self.separable


def lag_counts(spec: BlockSpec) -> tuple[np.ndarray, np.ndarray]:
    """Lag multiplicities (intra, cross) of a layout, as float arrays.

    intra[l] counts the site pairs at lag l within block A (block B has the
    same counts), cross[l] those between A and B; both run to lag
    spec.max_lag.  They do not depend on the coupling.
    """
    a, b = block_indices(spec)
    length = spec.max_lag + 1
    return (lag_count_array(a, a, length).astype(np.float64),
            lag_count_array(a, b, length).astype(np.float64))


def covariance_of_blocks(table: CorrelationTable, spec: BlockSpec,
                         counts=None) -> CollectiveCovariance:
    """Collective covariance of the two blocks from a correlation table.

    `counts` is `lag_counts(spec)`, computed here when not given; a sweep
    over couplings passes it to count each geometry once.

    Raises LagBoundError if the table is shorter than the largest lag the
    geometry needs; the caller must rebuild it with l_max >= spec.max_lag.
    """
    if table.l_max < spec.max_lag:
        raise LagBoundError(
            f"table covers lags <= {table.l_max} but spec {spec} needs "
            f"{spec.max_lag}")
    intra, cross = lag_counts(spec) if counts is None else counts
    n = spec.n
    length = spec.max_lag + 1
    g = table.g[:length]
    h = table.h[:length]
    return CollectiveCovariance(
        g_diag=float(g @ intra) / n,
        h_diag=float(h @ intra) / n,
        g_cross=float(g @ cross) / n,
        h_cross=float(h @ cross) / n)


def negativity(cov: CollectiveCovariance,
               vacuum_product: float = VACUUM_PRODUCT) -> EntanglementResult:
    """Entanglement degree eps from the partial-transpose criterion.

    `vacuum_product` is the squared Heisenberg bound of the collective
    commutator; pass the matching value when the covariance was computed
    under a different normalization convention (e.g. n^2/4 for plain sums).
    """
    d1 = cov.delta1
    d2 = cov.delta2
    if not (d1 > 0.0 and d2 > 0.0):
        raise InvalidCovarianceError(
            f"delta1={d1}, delta2={d2} must both be positive; the covariance "
            f"is unphysical (upstream numerical failure)")
    eps = max(0.0, vacuum_product / (d1 * d2) - 1.0)
    return EntanglementResult(epsilon=eps, delta1=d1, delta2=d2,
                              duan=duan_witness(cov), cov=cov,
                              vacuum_product=vacuum_product)


def duan_witness(cov: CollectiveCovariance) -> float:
    """Variance witness Delta = <(Q_A - Q_B)^2> + <(P_A + P_B)^2>; < 2 certifies
    entanglement."""
    return 2.0 * (cov.g_diag - cov.g_cross + cov.h_diag + cov.h_cross)


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
    if n < 1 or m < 1 or m > n:
        raise DomainError(f"need 1 <= m <= n, got m={m}, n={n}")
    d1 = g0 + (2.0 - (4.0 * m - 1.0) / n) * g1
    d2 = h0 + (2.0 - 1.0 / n) * h1
    return 1.0 / (4.0 * d1 * d2) - 1.0


def symplectic_form(n_sites: int) -> np.ndarray:
    """Direct sum of n_sites copies of [[0, 1], [-1, 0]] (qpqp... ordering)."""
    omega = np.zeros((2 * n_sites, 2 * n_sites))
    for j in range(n_sites):
        omega[2 * j, 2 * j + 1] = 1.0
        omega[2 * j + 1, 2 * j] = -1.0
    return omega


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

    Verification-only: N is capped at 64 sites.
    """
    if n_sites > 64:
        raise DomainError(f"verification path is capped at N = 64, got {n_sites}")
    if spec.span > n_sites:
        raise DomainError(
            f"spec {spec} spans {spec.span} sites, exceeding N = {n_sites}")
    a, b = block_indices(spec)
    n = spec.n
    s_mat = np.zeros((2 * n_sites, 2 * n_sites), dtype=complex)
    row = 0
    for sites in (a, b):
        for k in range(n):
            for rank, j in enumerate(sites):
                phase = np.exp(2j * np.pi * rank * k / n) / np.sqrt(n)
                s_mat[row, 2 * j] = phase              # Q^(k) over q_j
                s_mat[row + 1, 2 * j + 1] = phase.conjugate()  # P^(k) over p_j
            row += 2
    involved = set(a.tolist()) | set(b.tolist())
    for j in range(n_sites):
        if j not in involved:
            s_mat[row, 2 * j] = 1.0
            s_mat[row + 1, 2 * j + 1] = 1.0
            row += 2
    return s_mat
