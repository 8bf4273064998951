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

Each definition has one name, in its module: ``tdual.cells.quotient_quiver``.
"""
from . import branes, bundles, cells, geometry, oracle, report

__version__ = "0.1.0"
