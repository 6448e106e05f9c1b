"""modloc: a numerical laboratory for modular localization on the half line.

The package builds truncated positive-energy representations of the
Moebius group, the squared-Hamiltonian companion triple, and the modular
coordinate operator T = (1/2) log(2 C~), and verifies the commutation
relations, positivity statements, and localization inequalities that the
construction promises, against an independent finite-difference backend.
The group enters only through its generators H, D and C; its action on
points of the line is the demo demos/group_geometry.py.
"""

try:
    from numpy._core.multiarray import _set_madvise_hugepage
except ImportError:  # numpy < 2, or a numpy without the switch
    try:
        from numpy.core.multiarray import _set_madvise_hugepage
    except ImportError:
        _set_madvise_hugepage = None

from .errors import (
    ConfigError,
    DecompositionFailure,
    EigenFailure,
    ModlocError,
    OverflowAbort,
    ProjectionLoss,
    SpectrumOutOfDomain,
)
from .laguerre import BasisSpec, QuadratureRule, basis_matrix, gauss_laguerre
from .spectral import (
    GeneratorSet,
    HermitianOperator,
    Tridiagonal,
    build_generators,
    build_T,
    build_tilde_generators,
    matrix_function,
    unitary_flow,
)
from .gridop import GridRep, GridSpec, GridState, build_grid_ops
from .localization import (
    BumpSpec,
    FourierProfile,
    StateVector,
    make_bump,
    positive_frequency,
)

__version__ = "0.1.0"

# numpy advises transparent huge pages for every array of 4 MiB or more; the
# kernel then fills the freed holes of the heap with huge pages whenever it
# has some to spare, and peak memory moves from run to run
if _set_madvise_hugepage is not None:
    _set_madvise_hugepage(False)
