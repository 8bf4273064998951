"""Toolkit for the dual torus fibration over the open simplex.

The package is organised around five pieces:

* :mod:`tdual.geometry` — the checks of the ``geometry`` command on whole
  sample arrays: the moment-map and fiber-radii round trip, the modulus of
  the mirror coordinates, the algebra of the reference two-form, and the
  potential with its critical points.
* :mod:`tdual.branes` — the level-k sections over the simplex, the lifted
  cells whose potential's gradient graph reproduces them, and the exactness,
  graph and short-time separation checks of the ``branes`` command.
* :mod:`tdual.cells` — the open cells on the quotient torus and the label of
  each containment, the quiver's hom bases as label arrays composed block by
  block (labels add), their exports, and the strong exceptionality test.
* :mod:`tdual.bundles` — the monomial quiver of line bundles and the
  exhaustive comparison against the cell quiver.
* :mod:`tdual.oracle` — exact relative-cohomology dimensions of cell pairs:
  the pair regions as faces of one triangulation for every n, and a compact
  rational model of them, with its cohomology, for n = 1, 2.
"""
from .branes import (
    LiftedCell,
    base_potential,
    check_exactness,
    check_graph,
    domain_face_midpoints,
    potential_value,
    separation_probe,
)
from .bundles import (
    euler_pairing,
    line_bundle_quiver,
    verify_equivalence,
)
from .cells import (
    CellObject,
    Quiver,
    cell_contains,
    hom_from_cells,
    is_strong_exceptional,
    quiver_to_dict,
    quiver_to_dot,
    quotient_quiver,
)
from .geometry import (
    MirrorPoint,
    TangentVector,
    superpotential,
    superpotential_critical_points,
    superpotential_gradient,
    symplectic_form_eval,
)
from .oracle import (
    oracle_hom_dim,
    region_pair,
    relative_cohomology,
    shrink_and_triangulate,
)
from .report import CheckReport

__version__ = "0.1.0"

__all__ = [
    "CellObject",
    "CheckReport",
    "LiftedCell",
    "MirrorPoint",
    "Quiver",
    "TangentVector",
    "base_potential",
    "cell_contains",
    "check_exactness",
    "check_graph",
    "domain_face_midpoints",
    "euler_pairing",
    "hom_from_cells",
    "is_strong_exceptional",
    "line_bundle_quiver",
    "oracle_hom_dim",
    "potential_value",
    "quiver_to_dict",
    "quiver_to_dot",
    "quotient_quiver",
    "region_pair",
    "relative_cohomology",
    "separation_probe",
    "shrink_and_triangulate",
    "superpotential",
    "superpotential_critical_points",
    "superpotential_gradient",
    "symplectic_form_eval",
    "verify_equivalence",
]
