"""Geometric rounding of distance estimates.

Rounding every estimate up to the next power of (1 + eps) costs a factor
(1 + eps) in accuracy but makes derived quantities (heap keys, minima) change
only O(log_(1+eps) of their range) times over a monotone stream, which is
what bounds the update work of the certificate heaps.

Each rounder owns one ladder [1, b, b^2, ...] with b = 1 + eps, built by
repeated multiplication and grown on demand; a rung that would overflow to
inf is the largest float instead, so every finite value >= 1 rounds to a
finite rung at most (1 + eps) times it.  The exponent of a value is its
bisect position on the ladder and its rounded value is the ladder float
there, so equal exponents give the same float and different exponents
different floats.  Comparing rounded values is therefore exactly as exact as
comparing exponents, float drift cannot split or merge buckets, and the
structures keep only the value.

The domain is [1, sys.float_info.max]: every value the package rounds is an
integer weight, a distance, or a ladder value plus a weight, so none is
below 1, and a value above the largest float (an integer weight of 10^309,
say) is refused, since no finite rung could reach it.  The refusal names an
integer past the float range by its bit length, not its digits.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left

from .graph import DomainError, describe


class GeometricRounder:
    """Rounds values from 1 to the largest float up to powers of (1 + eps).

    An eps with 1.0 + eps == 1.0 is refused: its ladder could never climb
    past 1.  Any larger eps climbs, but a tiny one still needs about
    ln(x) / eps rungs to reach x.
    """

    __slots__ = ("eps", "_ladder")

    def __init__(self, eps):
        if not (1.0 + eps > 1.0) or not math.isfinite(eps):
            raise DomainError(f"eps must be finite with 1 + eps > 1, got {eps!r}")
        self.eps = eps
        self._ladder = [1.0]

    def exponent(self, delta):
        """Smallest integer e with (1+eps)^e >= delta (the ceil of the log)."""
        ladder = self._ladder
        if not (1.0 <= delta <= ladder[-1]):
            if not (1.0 <= delta <= sys.float_info.max):
                raise DomainError(
                    f"can only round values in [1, largest float], got {describe(delta)}")
            base = 1.0 + self.eps
            while ladder[-1] < delta:
                # a rung past the float range is the largest float instead,
                # still within a factor 1 + eps of every value above the last
                ladder.append(min(ladder[-1] * base, sys.float_info.max))
        return bisect_left(ladder, delta)

    def round(self, delta):
        """The ladder value (1+eps)^exponent(delta); a fixed point of round."""
        return self._ladder[self.exponent(delta)]
