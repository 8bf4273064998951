"""Toolkit for the dual torus fibration over the open simplex.

The package is organised around five pieces:

* :mod:`tdual.geometry` — the moment map on projective space, torus fibers,
  mirror coordinates, the reference two-form and the potential with its
  critical points.
* :mod:`tdual.branes` — weighted sections over the simplex, the potential
  whose gradient graph reproduces them, exactness and graph checks, geodesic
  flow and short-time separation probes.
* :mod:`tdual.cells` — the category of open cells on the quotient torus,
  containment homs, composition, deck translations and the strong
  exceptionality test.
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
    geodesic_flow,
    hermitian_weight,
    potential_value,
    section_gamma,
    section_gamma_unreduced,
    section_tangent_frame,
    separation_probe,
)
from .bundles import (
    Monomial,
    euler_pairing,
    line_bundle_quiver,
    monomial_compose,
    monomial_hom_basis,
    to_monomial,
    verify_equivalence,
)
from .cells import (
    CellObject,
    DeckElement,
    HomElement,
    Quiver,
    cell_contains,
    compose,
    deck_translate,
    hom_basis,
    hom_from_cells,
    identity_hom,
    is_strong_exceptional,
    quiver_to_dict,
    quiver_to_dot,
    quotient_quiver,
)
from .geometry import (
    MirrorPoint,
    MomentImage,
    ProjectivePoint,
    TangentVector,
    TorusFiber,
    fiber_radii_from_moment,
    mirror_coordinates,
    moment_map,
    superpotential,
    superpotential_critical_points,
    superpotential_gradient,
    symplectic_form_eval,
)
from .oracle import (
    oracle_hom_dim,
    pair_cohomology,
    region_pair,
    relative_cohomology,
    shrink_and_triangulate,
)
from .report import CheckReport

__version__ = "0.1.0"

__all__ = [
    "CellObject",
    "CheckReport",
    "DeckElement",
    "HomElement",
    "LiftedCell",
    "MirrorPoint",
    "MomentImage",
    "Monomial",
    "ProjectivePoint",
    "Quiver",
    "TangentVector",
    "TorusFiber",
    "base_potential",
    "cell_contains",
    "check_exactness",
    "check_graph",
    "compose",
    "deck_translate",
    "domain_face_midpoints",
    "euler_pairing",
    "fiber_radii_from_moment",
    "geodesic_flow",
    "hermitian_weight",
    "hom_basis",
    "hom_from_cells",
    "identity_hom",
    "is_strong_exceptional",
    "line_bundle_quiver",
    "mirror_coordinates",
    "moment_map",
    "monomial_compose",
    "monomial_hom_basis",
    "oracle_hom_dim",
    "pair_cohomology",
    "potential_value",
    "quiver_to_dict",
    "quiver_to_dot",
    "quotient_quiver",
    "region_pair",
    "relative_cohomology",
    "section_gamma",
    "section_gamma_unreduced",
    "section_tangent_frame",
    "separation_probe",
    "shrink_and_triangulate",
    "superpotential",
    "superpotential_critical_points",
    "superpotential_gradient",
    "symplectic_form_eval",
    "to_monomial",
    "verify_equivalence",
]
