"""Entanglement between collective operators of oscillator blocks and
smeared field regions.

The chain side has one route per quantity: `correlation_table` gives the
correlations g_l, h_l (`finite_correlation_table` is the N-site oracle),
`block_indices` a layout's sites, and `covariance_of_blocks` with
`negativity` the collective covariance and the epsilon derived from it.
The field side has `field_covariance` for any number of windows per party,
with the Bessel functions it integrates evaluated in `chainent.field`
itself.  The package needs numpy alone.

Submodules
----------
correlations : ground-state two-point functions of the oscillator chain
blocks       : periodic two-block geometry and lag multiplicities
entanglement : collective covariances, negativity degree, Duan witness
field        : smeared scalar-field propagators and their negativity
kernels      : the AGM that seeds the correlation tables at lag 0
render       : CSV and JSON text of the command line's tables
digits       : %.17g's text of many floats at once, for the CSV
cli          : sweep / correlations / field / validate command line
"""

from .blocks import BlockSpec, block_indices
from .correlations import (CorrelationTable, correlation_table,
                           finite_correlation_table)
from .entanglement import (CollectiveCovariance, EntanglementResult,
                           approx_negativity, block_entanglement,
                           collective_symplectic, covariance_of_blocks,
                           negativity, symplectic_form)
from .errors import (ChainentError, ConvergenceError, DomainError,
                     InvalidCovarianceError, LagBoundError, QuadratureError)
from .field import (FieldRegionSpec, d_phi, d_pi, field_covariance,
                    field_negativity)
from .kernels import BACKEND as KERNEL_BACKEND

__version__ = "0.1.0"

__all__ = [
    "BlockSpec", "ChainentError", "CollectiveCovariance", "ConvergenceError",
    "CorrelationTable", "DomainError", "EntanglementResult",
    "FieldRegionSpec", "InvalidCovarianceError", "KERNEL_BACKEND",
    "LagBoundError", "QuadratureError", "approx_negativity",
    "block_entanglement", "block_indices", "collective_symplectic",
    "correlation_table", "covariance_of_blocks", "d_phi", "d_pi",
    "field_covariance", "field_negativity",
    "finite_correlation_table", "negativity", "symplectic_form",
]
