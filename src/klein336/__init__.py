"""Exact arithmetic for the order-336 unitary reflection group acting on a
rank-6 lattice, torsion points of the quotient torus, and the classification
of the quotient-variety singularities.

The package root loads only the group layer; every other name is imported
from its own module (``klein336.torus``, ``klein336.orbits``, ...)."""

from .group import get_group

__version__ = "0.1.0"
