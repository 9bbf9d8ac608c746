"""Exact laws of pairs of uniform maximal cyclic submodules.

The closed-form laws, as `Fraction`s, and the census that recomputes one
from the enumeration. Like every module on the path of the exact CLI modes
(`count` and `exhaustive`), this one imports no numpy: see the `fpmods`
package docstring.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .submodules import count_maximal, enumerate_maximal


def collision_probability_exact(p: int, n: int) -> Fraction:
    """Probability that two uniform maximal submodules coincide."""
    return Fraction(1, count_maximal(p, n))


def intersection_bound(p: int, n: int) -> Fraction:
    """Probability 1 - 1/((p+1) p^(n-1)) that two uniform maximal submodules
    differ, i.e. that the exponent v of their intersection is below n.

    Despite its name it bounds no intersection probability: the pair meets
    nontrivially (v > 0) with probability 1/(p+1) at every n, and
    nontrivially below the top level (0 < v < n) with probability only 1/6
    at (p, n) = (3, 2) and 2/15 at (5, 2). The name is kept, as is the
    `exhaustive` mode's `bound=` field that reports this value.
    """
    return 1 - collision_probability_exact(p, n)


def collision_probability_census(p: int, n: int) -> Fraction:
    """Collision probability recomputed from the full enumeration.

    Over all N^2 ordered pairs of enumerated forms, a form occurring c times
    collides in c^2 of them, so the census needs one pass, not N^2 compares.
    enumerate_maximal bounds that pass: above MAX_ENUM_SUBMODULES forms it
    raises ResourceBoundError.
    """
    multiplicity = Counter(enumerate_maximal(p, n))
    pairs = sum(multiplicity.values()) ** 2
    return Fraction(sum(c * c for c in multiplicity.values()), pairs)
