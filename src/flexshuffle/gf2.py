"""Row reduction over GF(2), shared by the coded search and the engine decoder.

A row is a Python int.  Its bits below ``n_cols`` are its coefficients;
bits at or above ``n_cols`` ride along with every XOR, as the right-hand
side of an augmented system ``[A | b]``.  A basis maps each pivot, the
lowest coefficient bit of its row (as a one-bit int), to that row, and is
kept fully reduced: no row has another row's pivot bit set.
"""

from __future__ import annotations


def insert(basis: dict[int, int], row: int, n_cols: int) -> bool:
    """Reduce ``row`` against ``basis`` and add it there.

    Returns False, leaving ``basis`` unchanged, when the coefficients of
    ``row`` already lie in its span.
    """
    for pivot, b in basis.items():
        if row & pivot:
            row ^= b
    coef = row & ((1 << n_cols) - 1)
    if not coef:
        return False
    pivot = coef & -coef
    for p, b in basis.items():
        if b & pivot:
            basis[p] = b ^ row
    basis[pivot] = row
    return True


def gf2_row_basis(rows, n_cols: int) -> list[int]:
    """The reduced row-echelon basis of the rows' span, sorted."""
    basis: dict[int, int] = {}
    for row in rows:
        insert(basis, row, n_cols)
    return sorted(basis.values())
