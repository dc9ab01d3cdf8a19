"""Exact feasibility of ``A x = b, x >= 0`` by phase-one simplex.

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

A presolve pass first applies the forcing rule of LP presolve (Andersen
and Andersen 1995): a row with target 0 whose coefficients all have one
sign forces every variable with a nonzero coefficient in it to 0, so those
columns never enter the tableau and stay 0 in the solution.  For a
classical decomposition, whose columns are 0/1, this drops every strategy
that hits a zero of the correlation.  The pass then removes duplicate and
zero rows (detecting trivially inconsistent systems along the way), which
keeps the tableau small for the highly redundant systems produced by
correlation decompositions.  The returned vector is checked against the
caller's full system in exact fractions, adding each support column only
at its nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, repeat
from math import lcm
from operator import attrgetter
from typing import Optional, Sequence

ZERO = Fraction(0)
_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def _presolve(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> Optional[tuple[list[int], list[tuple[tuple[Fraction, ...], Fraction]]]]:
    """Kept column indices and deduplicated rows; None means inconsistent.

    A row with target 0 whose coefficients all have one sign forces every
    variable with a nonzero coefficient in it to 0, so those columns are
    dropped first.  The rows are streamed twice, once over all columns and
    once over the kept ones, so no full copy of the system is built.
    """
    forced: set[int] = set()
    for b, coeffs in zip(target, zip(*columns)):
        if b == 0 and (min(coeffs) >= 0 or max(coeffs) <= 0):
            forced.update(compress(range(len(coeffs)), coeffs))
    kept = [j for j in range(len(columns)) if j not in forced]
    kept_rows = zip(*(columns[j] for j in kept)) if kept else repeat((), len(target))
    seen: dict[tuple[Fraction, ...], Fraction] = {}
    for b, coeffs in zip(target, kept_rows):
        if not any(coeffs):
            if b != 0:
                return None
            continue
        if coeffs in seen:
            if seen[coeffs] != b:
                return None
            continue
        seen[coeffs] = b
    return kept, list(seen.items())


def find_nonnegative_combination(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """Return ``x >= 0`` with ``sum x[j] * columns[j] == target``, or None.

    ``columns`` are equal-length exact vectors (``int`` or ``Fraction``
    entries).  The returned solution is deterministic (Bland's rule) and
    verified against the full system before being handed back.
    """
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
    entries = chain.from_iterable(coeffs for coeffs, _ in rows)
    scale = lcm(*set(map(_denominator, entries)))
    bscale = lcm(*(b.denominator for _, b in rows))
    tableau: list[list[int]] = []
    basis: list[int] = []  # kept index j, or n + i for the artificial of row i
    for i, (coeffs, b) in enumerate(rows):
        if scale == 1:
            row = list(map(_numerator, coeffs))
        else:
            row = [v.numerator * (scale // v.denominator) for v in coeffs]
        row.append(b.numerator * (bscale // b.denominator))
        if b < 0:
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
            support.append((columns[kept[j]], x))
    # The check shares no scaling with the tableau: exact fractions against
    # the caller's full system, summed at each support column's nonzeros.
    total = [ZERO] * len(target)
    for column, x in support:
        for i in compress(range(len(total)), column):
            total[i] += x * column[i]
    if any(t != b for t, b in zip(total, target)):
        raise AssertionError("simplex returned a vector that fails verification")
    return solution
