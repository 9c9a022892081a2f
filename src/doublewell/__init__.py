"""Numerical laboratory for a nonconvex double-well variational problem.

The infimum of an integral functional whose density is the pointwise
minimum of two quadratic phase energies is approached by alternating
convex solves with phase reassignment, oscillation (laminate) seeding
and mesh refinement.  Every run cross-checks the Fenchel duality
identities, the algebraic energy representations, the relaxation
formulas through weak limits, and the parametrized Young measure of the
minimizing sequence.  The modules are imported by name
(`from doublewell import pipeline`); the package itself holds only its
version.
"""

__version__ = "0.1.0"
