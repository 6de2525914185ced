"""Exact span equality of Elements over Q(q), by a sparse echelon form.

An Element is read as the vector of its {word: coeff} dict.  A list of
Elements is brought to echelon form by a table of pivots keyed by their
lead word, the least word of the pivot in tuple order (never hash order,
so the pivots do not depend on the hash seed).  An element is reduced by
cancelling its lead against the pivot with that lead until it vanishes or
its lead is not a pivot's.  A pivot whose lead coefficient is a unit r*q^k
is scaled to lead 1; any other lead is cancelled by cross-multiplication,
so every value stays in Q[q, q^-1] and the elimination is exact without
division.
"""

from __future__ import annotations

from .ring import ONE


def _reduce(e, pivots):
    """e with its lead cancelled against pivots while a pivot has it."""
    while e:
        lead = min(e.terms)
        p = pivots.get(lead)
        if p is None:
            break
        c, pc = e.terms[lead], p.terms[lead]
        e = (e if pc is ONE else e.scaled(pc)) - p.scaled(c)
    return e


def _echelon(elements):
    """{lead word: pivot} whose pivots span the elements, one per dimension."""
    pivots = {}
    for e in elements:
        e = _reduce(e, pivots)
        if e:
            lead = min(e.terms)
            c = e.terms[lead]
            pivots[lead] = e.scaled(c.unit_inverse()) if c.is_unit() else e
    return pivots


def same_span(a, b):
    """True iff the Elements a and b span the same space over Q(q): the two
    echelon forms have the same size and every element of b reduces to zero
    against a's."""
    pivots = _echelon(a)
    return (len(_echelon(b)) == len(pivots)
            and not any(_reduce(e, pivots) for e in b))
