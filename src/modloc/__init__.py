"""modloc: a numerical laboratory for modular localization on the half line.

The package builds truncated positive-energy representations of the
Moebius group, the squared-Hamiltonian companion triple, and the modular
coordinate operator T = (1/2) log(2 C~), and verifies the commutation
relations, positivity statements, and localization inequalities that the
construction promises, against an independent finite-difference backend.
"""

from ._heap import pin_mmap_threshold
from .errors import (
    ConfigError,
    DecompositionFailure,
    DegenerateInterval,
    EigenFailure,
    ModlocError,
    NyquistViolation,
    OverflowAbort,
    ProjectionLoss,
    SpectrumOutOfDomain,
    SupportEscapesGrid,
)
from .laguerre import BasisSpec, QuadratureRule, basis_eval, gauss_laguerre
from .mobius import (
    INFINITY,
    Interval,
    MoebiusMap,
    act_interval,
    act_point,
    dilation,
    dilation_matrix,
    iwasawa,
    map_halfline_to,
    rotation,
    special_conformal,
    translation,
)
from .spectral import (
    GeneratorSet,
    HermitianOperator,
    build_generators,
    build_T,
    build_Th_Tc,
    build_tilde_generators,
    matrix_function,
    unitary_flow,
)
from .gridop import GridRep, GridSpec, GridState, build_grid_ops, grid_dilation
from .localization import (
    BumpSpec,
    FourierProfile,
    StateVector,
    make_bump,
    moebius_on_wavefunction,
    positive_frequency,
    symplectic,
)

__version__ = "0.1.0"

# large arrays are mapped on their own, so peak memory follows the live
# arrays from run to run (see modloc._heap)
pin_mmap_threshold()
