"""Row reduction over GF(2), shared by the coded search and the engine decoder.

A row is a Python int.  Its bits below ``n_cols`` are its coefficients;
bits at or above ``n_cols`` ride along with every XOR, as the right-hand
side of an augmented system ``[A | b]``.  A basis maps each pivot, the
lowest coefficient bit of its row (as a one-bit int), to that row, and is
kept fully reduced: no row has another row's pivot bit set.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceeded

_CHUNK = 1 << 14
MAX_COLS = 32  # completion_ranks packs each row into a uint32
# completion_ranks and its sort hold about 18 bytes per completion, 2**free
# of them: 24 free cells took 350 MB and 20 s on one core of a 2-core machine.
MAX_FREE = 24


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


def completion_ranks(base, cells, n_cols: int) -> np.ndarray:
    """Rank of every completion of a pattern, vectorized across completions.

    ``base`` holds the forced bits of each row and ``cells`` the (row,
    column) free cells; completion ``x`` sets free cell ``f`` when bit ``f``
    of ``x`` is set.  Entry ``x`` of the result is the rank of completion
    ``x``, for all ``2 ** len(cells)`` of them.
    """
    if n_cols > MAX_COLS:
        raise CapExceeded("fitting-matrix columns", n_cols, MAX_COLS)
    R = len(base)
    base = np.array(base, dtype=np.uint32)
    completions = np.arange(1 << len(cells), dtype=np.uint64)
    ranks = np.empty(len(completions), dtype=np.int16)
    row_idx = np.arange(R)
    for lo in range(0, len(completions), _CHUNK):
        idx = completions[lo : lo + _CHUNK]
        S = len(idx)
        work = np.tile(base, (S, 1))
        for f, (r, c) in enumerate(cells):
            work[:, r] |= ((idx >> f) & 1).astype(np.uint32) << np.uint32(c)
        rank = np.zeros(S, dtype=np.int16)
        for c in range(n_cols):
            bit = np.uint32(1 << c)
            avail = ((work & bit) != 0) & (row_idx[None, :] >= rank[:, None])
            s_idx = np.flatnonzero(avail.any(axis=1))
            if s_idx.size == 0:
                continue
            k = np.arange(s_idx.size)
            pivot = np.argmax(avail[s_idx], axis=1)
            sub = work[s_idx]
            r_to = rank[s_idx].astype(np.intp)
            piv_rows = sub[k, pivot].copy()
            sub[k, pivot] = sub[k, r_to]
            sub[k, r_to] = piv_rows
            elim = (sub & bit) != 0
            elim[k, r_to] = False
            sub ^= elim.astype(np.uint32) * piv_rows[:, None]
            work[s_idx] = sub
            rank[s_idx] += 1
        ranks[lo : lo + S] = rank
    return ranks
