"""Fraction-free exact linear algebra over the Laurent coefficient ring.

Rank is computed by cross-multiplication elimination (no division), which is
exact over an integral domain; the matrices here are tiny, so the modest
degree growth is irrelevant.
"""

from __future__ import annotations


def rank(rows):
    """Rank of a matrix given as a list of rows of LaurentScalar."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    ncols = len(work[0])
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(work)):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pv = work[r][col]
        for i in range(r + 1, len(work)):
            ci = work[i][col]
            if ci:
                work[i] = [pv * work[i][j] - ci * work[r][j] for j in range(ncols)]
        r += 1
        if r == len(work):
            break
    return r


def row_space_equal(rows_a, rows_b):
    ra = rank(rows_a)
    rb = rank(rows_b)
    return ra == rb == rank(list(rows_a) + list(rows_b))


def elements_to_rows(elements, word_basis, zero):
    """Coefficient rows of elements over an ordered word basis; raises when an
    element has support outside the basis."""
    index = {w: i for i, w in enumerate(word_basis)}
    rows = []
    for e in elements:
        row = [zero] * len(word_basis)
        for w, c in e.terms.items():
            if w not in index:
                raise ValueError(f"word {w} outside the declared basis")
            row[index[w]] = c
        rows.append(row)
    return rows
