"""Geometric rounding of distance estimates.

Rounding every estimate up to the next power of (1 + eps) costs a factor
(1 + eps) in accuracy but makes derived quantities (heap keys, minima) change
only O(log_(1+eps) of their range) times over a monotone stream, which is
what bounds the update work of the certificate heaps.

Rounded values are identified by their integer exponent; two rounded values
are equal iff their exponents are equal, so all change detection happens on
ints and float drift cannot split or merge buckets.
"""

from __future__ import annotations

import math

from .graph import DomainError

# power tables shared by all rounders with the same base
_POW_CACHE: dict = {}


def _powers(eps):
    table = _POW_CACHE.get(eps)
    if table is None:
        table = [1.0]
        _POW_CACHE[eps] = table
    return table


def _power(eps, e):
    if e < 0:
        return (1.0 + eps) ** e
    table = _powers(eps)
    base = 1.0 + eps
    while len(table) <= e:
        table.append(table[-1] * base)
    return table[e]


class GeometricRounder:
    """Rounds positive values up to powers of (1 + eps)."""

    __slots__ = ("eps",)

    def __init__(self, eps):
        if not (eps > 0) or not math.isfinite(eps):
            raise DomainError(f"eps must be positive and finite, got {eps!r}")
        self.eps = eps

    def exponent(self, delta):
        """Smallest integer e with (1+eps)^e >= delta (the ceil of the log)."""
        if not (delta > 0):
            raise DomainError(f"can only round positive values, got {delta!r}")
        if not math.isfinite(delta):
            raise DomainError("cannot round an infinite value")
        eps = self.eps
        e = math.ceil(math.log(delta, 1.0 + eps))
        # float log can land one off on either side; fix against the table
        while _power(eps, e - 1) >= delta:
            e -= 1
        while _power(eps, e) < delta:
            e += 1
        return e

    def value(self, exponent):
        return _power(self.eps, exponent)

    def round(self, delta):
        return _power(self.eps, self.exponent(delta))
