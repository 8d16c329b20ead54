"""bridgekit: exact-arithmetic combinatorics of two-bridge knots.

Words (tuples of nonzero even integers, even length) carry two-bridge
knots; the package computes their invariants, enumerates the census by
crossing number, verifies the closed-form counts, searches for
epimorphisms between knot groups, and classifies minimality for small
braid index.  Everything is exact: big integers and fractions only.

The API is the submodules: ``bridgekit.contfrac``, ``bridgekit.knot``,
``bridgekit.census``, ``bridgekit.epim``, ``bridgekit.classify`` and
``bridgekit.cli``.
"""

__version__ = "0.1.0"
