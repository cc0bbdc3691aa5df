"""Mixed virtual volume solver for Darcy flow on polygonal meshes.

The primal pressure problem is discretized with a nonconforming virtual
element space and solved as one SPD system; the conservative velocity, its
L2 projection onto cellwise vector polynomials, and a lowest-order
Raviart-Thomas-type field are then recovered locally, cell by cell.
"""

from .cases import CASES, ManufacturedCase, get_case, polynomial_case
from .linsolve import SolverError, SparseSpd
from .ncvem import NcDofMap, NcElement, SpdSystem, assemble, build_element, solve_pressure
from .polybasis import PolyQuadrature, gk_perp_basis, polygon_quadrature
from .polymesh import (
    MeshError,
    MeshFormatError,
    MeshQualityReport,
    PolyMesh,
    build_topology,
    distorted_family,
    ear_triangles,
    euler_check,
    generate_distorted_polygonal,
    generate_uniform_quads,
    mesh_quality,
    read_mesh,
    write_mesh,
)
from .recovery import (
    PiecewisePolyField,
    RecoveredVelocity,
    RecoveryError,
    VelocityDofs,
    recover_velocity,
)
from .study import (
    ConvergenceRow,
    SolveResult,
    convergence_study,
    error_norms,
    solve_case,
)
from .vtk_export import export_vtk

__version__ = "0.1.0"
