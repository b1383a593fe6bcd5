"""Semi-discrete Active Flux solvers on periodic Cartesian meshes.

The scheme evolves cell averages (and higher moments) together with
point values shared at cell interfaces, giving a globally continuous
reconstruction.  The update equations come from a Petrov-Galerkin
formulation whose test functions are biorthogonal to the basis, so the
mass matrix is the identity.  The test functions, discontinuous at
interfaces, carry a free upwind weight at each interface; the runtime
runs the one member whose weights follow the sign of the wave speed,
and ``build_point_test``, ``build_edge_test`` and ``build_node_test``
(``afpg dump-element --alpha``, ``afpg dump-element-2d --alphas``)
still build any member of the family.
"""

from afpg.element1d import (
    Element1D,
    MomentWeight,
    PointTest1D,
    build_element,
    build_point_test,
    moment_weight,
    reconstruct,
)
from afpg.element2d import (
    DOF_IDS,
    Element2D,
    PointTest2D,
    build_edge_test,
    build_element_2d,
    build_node_test,
    reconstruct2d,
)
from afpg.grid import (
    Grid1D,
    Grid2D,
    State1D,
    State2D,
    error_norms,
    project_initial,
    total_mass,
    write_state_csv,
)
from afpg.models import advection1d, advection2d, burgers1d, linear_system1d
from afpg.poly import Poly, QuadratureRule, gauss_rule, inner, integrate
from afpg.semidiscrete import Upwind1D, Upwind2D, rhs_1d, rhs_2d
from afpg.timestep import BlowUpError, TimeIntegrator, advance, compute_dt, step

__version__ = "0.1.0"

__all__ = [
    "Poly", "QuadratureRule", "gauss_rule", "integrate", "inner",
    "MomentWeight", "Element1D", "PointTest1D",
    "moment_weight", "build_element", "build_point_test", "reconstruct",
    "DOF_IDS", "Element2D", "PointTest2D",
    "build_element_2d", "build_edge_test", "build_node_test", "reconstruct2d",
    "Grid1D", "Grid2D", "State1D", "State2D",
    "project_initial", "total_mass", "error_norms", "write_state_csv",
    "advection1d", "advection2d", "burgers1d", "linear_system1d",
    "Upwind1D", "Upwind2D", "rhs_1d", "rhs_2d",
    "TimeIntegrator", "BlowUpError", "step", "compute_dt", "advance",
]
