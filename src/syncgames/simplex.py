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
rows over one common denominator: each pivot replaces every other row by
``(piv * row - f * pivot_row) // den``, a division that is always exact,
and the pivot element becomes the new denominator.  When the pivot
equals the denominator, as it almost always does for 0/1 columns, that
update is ``row - (f * pivot_row) // den``: rows with ``f == 0`` stay as
they are and the others change, in place, only where the pivot row is
nonzero, which about halves the cost of a pivot.  Fractional
coefficients are first cleared by one common positive column scale (the
lcm of their denominators; 1 for the 0/1 strategy columns of a classical
decomposition), and the right-hand side by the lcm of its own
denominators.  The right-hand side is the tableau's last integer column,
so the same update carries the values of the basic variables; a
:class:`fractions.Fraction` is built only for each entry of the solution.

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

    # Phase-one objective: minimize the sum of artificials.  The reduced
    # cost row (over the same denominator) starts as minus the column sums;
    # the right-hand column is no candidate to enter.
    objective = [-sum(column) for column in zip(*tableau)]
    objective.pop()

    while True:
        entering = -1
        for j, cost in enumerate(objective):
            if cost < 0:
                entering = j
                break
        if entering < 0:
            break
        # Ratio test by cross-multiplication: rhs_i / t_i < rhs_k / t_k
        # with both pivots t positive; den cancels from every ratio.
        leaving = -1
        for i in range(m):
            t = tableau[i][entering]
            if t > 0:
                if leaving < 0:
                    leaving, best_rhs, best_t = i, tableau[i][n], t
                    continue
                this, best = tableau[i][n] * best_t, best_rhs * t
                if this < best or (this == best and basis[i] < basis[leaving]):
                    leaving, best_rhs, best_t = i, tableau[i][n], t
        if leaving < 0:
            raise AssertionError("phase-one objective cannot be unbounded")
        pivot_row = tableau[leaving]
        pivot = pivot_row[entering]
        if pivot == den:
            # (den * a - f * p) // den is a - f * p // den, and f * p is a
            # multiple of den: rows with f == 0 keep every entry, and the
            # others change only where the pivot row is nonzero, in place.
            nonzero = [(j, p) for j, p in enumerate(pivot_row) if p]
            for i, row in enumerate(tableau):
                factor = row[entering]
                if factor != 0 and i != leaving:
                    for j, p in nonzero:
                        row[j] -= factor * p // den
                    if row[n] > 0 and max(row[:n]) <= 0:
                        return None
            factor = objective[entering]
            for j, p in nonzero:
                if j < n:  # the objective has no right-hand entry
                    objective[j] -= factor * p // den
        else:
            for i, row in enumerate(tableau):
                if i == leaving:
                    continue
                factor = row[entering]
                if factor != 0:
                    tableau[i] = row = [(pivot * a - factor * p) // den for a, p in zip(row, pivot_row)]
                    if row[n] > 0 and max(row[:n]) <= 0:
                        return None
                else:
                    tableau[i] = [pivot * a // den for a in row]
            factor = objective[entering]
            objective = [(pivot * a - factor * p) // den for a, p in zip(objective, pivot_row)]
        basis[leaving] = entering
        den = pivot

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
