"""Exact feasibility of ``A x = b, x >= 0`` by phase-one simplex.

The columns of ``A`` are sparse and ``b`` is dense.  Column ``j`` is a
sequence of ``(row, coefficient)`` pairs, each row a nonnegative index
into ``b``, with ``int`` or ``Fraction`` coefficients; no dense column of
``A`` is ever built.  A row appears at most once in a column.  A zero
coefficient is skipped, the same as an absent entry.  The order of a
column's pairs does not change the answer.

The columns are handed over as :class:`SparseColumns`, which validates
them once, when it is built: a negative or repeated row raises
ValueError there.  It also records, as one ``int`` bitmask per column,
the rows where the column is nonzero, and as one more bitmask the rows
whose coefficients take both signs.  A caller that solves many systems
over the same columns, as a classical decomposition does for every
correlation of one shape, builds it once.  Each solve then only checks
that the largest row is an index into its target.

A presolve pass first applies the forcing rule of LP presolve (Andersen
and Andersen 1995): a row with target 0 whose coefficients all have one
sign forces every variable with a nonzero coefficient in it to 0, so those
columns never enter the tableau and stay 0 in the solution.  The forcing
rows are the zero-target rows outside the both-signs mask, and a column is
kept when its mask misses them all: one ``&`` per column, with no pass
over the entries.  For a classical decomposition, whose columns are 0/1,
this drops every strategy that hits a zero of the correlation.  The pass
then removes duplicate and zero rows (detecting trivially inconsistent
systems along the way), which keeps the tableau small for the highly
redundant systems produced by correlation decompositions.

The tableau is fraction-free (Bareiss 1968) and held as Python ``int``
rows over one common denominator.  Each pivot is one :func:`_pivot`, the
elimination step that ``morphology``'s nullspaces also take: every other
row becomes ``(piv * row - f * pivot_row) // den``, a division that is
always exact, and the pivot becomes the new denominator.  When the pivot
equals the denominator, as it almost always does for 0/1 columns, rows
with ``f == 0`` stay as they are and the others change, in place, only
where the pivot row is nonzero, which about halves the cost of a pivot.
Fractional coefficients are first cleared by one common positive column
scale (the lcm of their denominators; 1 for the 0/1 strategy columns of a
classical decomposition), and the right-hand side by the lcm of its own
denominators.  The right-hand side is the tableau's last column and the
phase-one objective its last row, so the same step carries the basic
variables and the reduced costs; a :class:`fractions.Fraction` is built
only for each entry of the solution.

Neither the common denominator nor the scales change the sign of a
reduced cost or the order of the ratios, so Bland's smallest-index rule
takes the same pivots, and returns the same vertex, as the same method run
over fractions; it is deterministic and guaranteed to terminate.

Phase one stops early when a pivot leaves a row with a positive
right-hand side and no positive coefficient.  Such a row is a combination
of the equations whose left side is at most 0 for every ``x >= 0`` (a
Farkas certificate), so the system has no solution and None is returned
at once.  A feasible system never has such a row, so it takes the same
pivots as before; an infeasible one skips the pivots that would only have
driven the phase-one objective to its positive minimum.

The returned vector is checked against the caller's full system in
integers that share no scaling with the tableau: the support's values
over their lcm, the support columns over theirs, summed only at those
columns' entries, and each row compared with its target by
cross-multiplying.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence, Union

Rational = Union[int, Fraction]
Column = Sequence[tuple[int, Rational]]
Pattern = tuple[tuple[int, Rational], ...]

ZERO = Fraction(0)


class SparseColumns:
    """Validated sparse columns of ``A``, with each column's row bitmask.

    ``SparseColumns(columns)`` takes an iterable of columns, each a sequence
    of ``(row, coefficient)`` pairs, and keeps them as tuples.  It raises
    ValueError for a negative row or a row repeated within a column (an
    explicit zero counts).  ``masks[j]`` has bit ``r`` set when column ``j``
    is nonzero in row ``r``; ``mixed`` has bit ``r`` set when row ``r`` has
    both a positive and a negative coefficient; ``top`` is the largest row
    of any entry, or -1.  ``len()`` and iteration give the columns.
    """

    __slots__ = ("columns", "masks", "mixed", "top")

    def __init__(self, columns: Iterable[Column]) -> None:
        self.columns = tuple(map(tuple, columns))
        masks = []
        positive = negative = 0
        top = -1
        for j, column in enumerate(self.columns):
            seen = mask = 0
            for r, v in column:
                if r < 0:
                    raise ValueError(f"column {j} has a negative row {r}")
                bit = 1 << r
                if seen & bit:
                    raise ValueError(f"column {j} repeats row {r}")
                seen |= bit
                if v > 0:
                    positive |= bit
                elif v < 0:
                    negative |= bit
                else:
                    continue
                mask |= bit
            masks.append(mask)
            top = max(top, seen.bit_length() - 1)
        self.masks = tuple(masks)
        self.mixed = positive & negative
        self.top = top

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)


def _presolve(
    columns: SparseColumns, target: Sequence[Rational]
) -> Optional[tuple[list[int], list[tuple[Pattern, Rational]]]]:
    """Kept column indices and deduplicated row patterns; None means inconsistent.

    The columns were validated when ``columns`` was built; here a row beyond
    ``target`` raises ValueError.  The forcing rows are the rows with target
    0 outside ``columns.mixed``, and every column whose mask meets them is
    forced to 0 and dropped.  One pass over the kept columns builds each
    row's pattern ``((k, v), ...)``, where ``k`` is the column's position
    among the kept ones, in increasing ``k``.  The rows are then taken in
    index order: a zero row must have target 0 and a repeated pattern the
    target of its first occurrence, and both are dropped.  These are the
    rows, in the order, that the dense tableau of the kept columns would
    keep.
    """
    m = len(target)
    if columns.top >= m:
        raise ValueError(f"row {columns.top} is beyond a target of length {m}")
    forcing = 0
    for r, b in enumerate(target):
        if b == 0:
            forcing |= 1 << r
    forcing &= ~columns.mixed
    kept = [j for j, mask in enumerate(columns.masks) if not mask & forcing]
    patterns: list[list[tuple[int, Rational]]] = [[] for _ in range(m)]
    for k, j in enumerate(kept):
        for r, v in columns.columns[j]:
            if v:
                patterns[r].append((k, v))
    seen: dict[Pattern, Rational] = {}
    for b, pattern in zip(target, map(tuple, patterns)):
        if not pattern:
            if b != 0:
                return None
            continue
        if pattern in seen:
            if seen[pattern] != b:
                return None
            continue
        seen[pattern] = b
    return kept, list(seen.items())


def _pivot(rows: list[list[int]], k: int, col: int, den: int) -> int:
    """Eliminate column ``col`` from every row but ``k``; the pivot is the new den.

    Each row becomes ``(piv * row - f * rows[k]) // den``, exactly (Bareiss
    1968); when ``piv == den`` that is ``row - f * rows[k] // den``, done in
    place where ``f`` and ``rows[k]`` are nonzero.  Any signs are allowed.
    """
    pivot_row = rows[k]
    piv = pivot_row[col]
    if piv == den:
        nonzero = [(j, p) for j, p in enumerate(pivot_row) if p]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != k:
                for j, p in nonzero:
                    row[j] -= f * p // den
    else:
        for i, row in enumerate(rows):
            if i != k:
                f = row[col]
                if f:
                    rows[i] = [(piv * a - f * p) // den for a, p in zip(row, pivot_row)]
                else:
                    rows[i] = [piv * a // den for a in row]
    return piv


def find_nonnegative_combination(
    columns: SparseColumns, target: Sequence[Rational]
) -> Optional[list[Fraction]]:
    """Return ``x >= 0`` with ``sum x[j] * columns[j] == target``, or None.

    ``columns`` is a :class:`SparseColumns`; ``target`` is dense, one entry
    per row, and must cover every row of the columns (else ValueError).
    The returned solution is deterministic (Bland's rule), has one entry
    per column and is verified against the full system before being
    handed back.
    """
    if not isinstance(columns, SparseColumns):
        raise TypeError("columns must be a SparseColumns")
    presolved = _presolve(columns, target)
    if presolved is None:
        return None
    kept, rows = presolved
    solution = [ZERO] * len(columns)
    if not rows:
        return solution

    # Solve over the kept columns for y = x * bscale / scale, whose columns
    # and right-hand side are integral.  The true tableau entry is
    # tableau[i][j] / den, and column n holds the right-hand side:
    # tableau[i][n] / den is the basic variable of row i.  The starting
    # basis is one artificial variable per row; artificial columns are never
    # explicit because they never re-enter.
    n = len(kept)
    scale = lcm(*{v.denominator for pattern, _ in rows for _, v in pattern})
    bscale = lcm(*(b.denominator for _, b in rows))
    tableau: list[list[int]] = []
    basis: list[int] = []  # kept index j, or n + i for the artificial of row i
    for i, (pattern, b) in enumerate(rows):
        row = [0] * (n + 1)
        if scale == 1:
            for k, v in pattern:
                row[k] = v.numerator
        else:
            for k, v in pattern:
                row[k] = v.numerator * (scale // v.denominator)
        row[n] = b.numerator * (bscale // b.denominator)
        if row[n] < 0:
            row = [-v for v in row]
        tableau.append(row)
        basis.append(n + i)
    m = len(tableau)
    den = 1

    # Phase-one objective: minimize the sum of artificials.  Its reduced
    # costs (over the same denominator) start as minus the column sums; as
    # row m they are updated by each pivot like any other row.
    tableau.append([-sum(column) for column in zip(*tableau)])

    while True:
        # Bland's rule: the first negative reduced cost enters.  The scan
        # ends at index n, the right-hand entry, also when none is negative.
        for entering, cost in enumerate(tableau[m]):
            if cost < 0:
                break
        if entering == n:
            break
        # Ratio test by cross-multiplication: rhs_i / t_i < rhs_k / t_k
        # with both pivots t positive; den cancels from every ratio.  Only a
        # row with t != 0 can become a Farkas row: the pivot leaves the
        # others as they are or scales them by piv / den > 0.
        leaving = -1
        changed = []
        for i in range(m):
            t = tableau[i][entering]
            if t:
                changed.append(i)
                if t > 0:
                    if leaving < 0:
                        leaving, best_rhs, best_t = i, tableau[i][n], t
                        continue
                    this, best = tableau[i][n] * best_t, best_rhs * t
                    if this < best or (this == best and basis[i] < basis[leaving]):
                        leaving, best_rhs, best_t = i, tableau[i][n], t
        if leaving < 0:
            raise AssertionError("phase-one objective cannot be unbounded")
        den = _pivot(tableau, leaving, entering, den)
        basis[leaving] = entering
        # A row whose basic variable is structural, the pivot row's among
        # them, holds den > 0 in that column, so it is never a Farkas row.
        for i in changed:
            row = tableau[i]
            if basis[i] >= n and row[n] > 0 and max(row[:n]) <= 0:
                return None

    if any(tableau[i][n] != 0 for i in range(m) if basis[i] >= n):
        return None
    support = []
    for i in range(m):
        j = basis[i]
        if j < n and tableau[i][n] != 0:
            x = Fraction(tableau[i][n] * scale, den * bscale)
            solution[kept[j]] = x
            support.append((columns.columns[kept[j]], x))
    # The check shares no scaling with the tableau.  With the support's
    # values over their lcm dx and its columns over theirs dc, total[r] is
    # row r of A x times dx * dc, in integers, summed only at the support
    # columns' entries.
    dx = lcm(*(x.denominator for _, x in support))
    dc = lcm(*{v.denominator for column, _ in support for _, v in column})
    total = [0] * len(target)
    for column, x in support:
        xn = x.numerator * (dx // x.denominator)
        for r, v in column:
            total[r] += xn * v.numerator * (dc // v.denominator)
    unit = dx * dc
    for t, b in zip(total, target):
        numerator, denominator = b.as_integer_ratio()
        if t * denominator != numerator * unit:
            raise AssertionError("simplex returned a vector that fails verification")
    return solution
