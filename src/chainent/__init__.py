"""Entanglement between collective operators of oscillator blocks and
smeared field regions.

Submodules
----------
correlations : ground-state two-point functions of the oscillator chain
blocks       : periodic two-block geometry and lag multiplicities
entanglement : collective covariances, negativity degree, Duan witness
field        : smeared scalar-field propagators and their negativity
kernels      : the Gauss series that seeds the correlation tables at lag 0
cli          : sweep / correlations / field / validate command line
"""

from .blocks import BlockIndices, BlockSpec, block_indices, lag_multiset
from .correlations import (CorrelationTable, Coupling, correlation_table,
                           dispersion, finite_correlation_table, g_finite,
                           g_infinite, h_finite, h_infinite, hyp2f1,
                           reduced_coupling)
from .entanglement import (CollectiveCovariance, EntanglementResult,
                           approx_negativity, block_entanglement,
                           collective_symplectic, covariance_of_blocks,
                           duan_witness, negativity, symplectic_form)
from .errors import (ChainentError, ConvergenceError, DomainError,
                     InvalidCovarianceError, LagBoundError, QuadratureError)
from .field import (FieldRegionSpec, d_phi, d_pi, field_covariance,
                    field_negativity, periodic_field_negativity)
from .kernels import BACKEND as KERNEL_BACKEND

__version__ = "0.1.0"

__all__ = [
    "BlockIndices", "BlockSpec", "ChainentError", "CollectiveCovariance",
    "ConvergenceError", "CorrelationTable", "Coupling", "DomainError",
    "EntanglementResult", "FieldRegionSpec", "InvalidCovarianceError",
    "KERNEL_BACKEND", "LagBoundError", "QuadratureError",
    "approx_negativity", "block_entanglement", "block_indices",
    "collective_symplectic", "correlation_table", "covariance_of_blocks",
    "d_phi", "d_pi", "dispersion", "duan_witness", "field_covariance",
    "field_negativity", "finite_correlation_table", "g_finite", "g_infinite",
    "h_finite", "h_infinite", "hyp2f1", "lag_multiset", "negativity",
    "periodic_field_negativity", "reduced_coupling", "symplectic_form",
]
