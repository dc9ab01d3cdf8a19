"""Exact feasibility of ``A x = b, x >= 0`` by phase-one simplex.

The tableau is fraction-free (Bareiss 1968) and held as Python ``int``
rows over one common denominator: each pivot replaces every other row by
``(piv * row - f * pivot_row) // den``, a division that is always exact,
and the pivot element becomes the new denominator.  Fractional
coefficients are first cleared by one common positive column scale (the
lcm of their denominators; 1 for the 0/1 strategy columns of a classical
decomposition), and the right-hand side by the lcm of its own
denominators.  The right-hand side is the tableau's last integer column,
so the same update carries the values of the basic variables; a
:class:`fractions.Fraction` is built only for each entry of the solution.

Neither the common denominator nor the scales change the sign of a
reduced cost or the order of the ratios, so Bland's smallest-index rule
takes the same pivots, and returns the same vertex, as the same method run
over fractions; it is deterministic and guaranteed to terminate.  A
presolve pass removes duplicate and zero rows (detecting trivially
inconsistent systems along the way), which keeps the tableau small for the
highly redundant systems produced by correlation decompositions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

ZERO = Fraction(0)


def _presolve(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> Optional[list[tuple[tuple[Fraction, ...], Fraction]]]:
    """Deduplicate rows; None means the system is already inconsistent."""
    seen: dict[tuple[Fraction, ...], Fraction] = {}
    order: list[tuple[Fraction, ...]] = []
    for i, b in enumerate(target):
        coeffs = tuple(column[i] for column in columns)
        if all(v == 0 for v in coeffs):
            if b != 0:
                return None
            continue
        if coeffs in seen:
            if seen[coeffs] != b:
                return None
            continue
        seen[coeffs] = b
        order.append(coeffs)
    return [(coeffs, seen[coeffs]) for coeffs in order]


def find_nonnegative_combination(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """Return ``x >= 0`` with ``sum x[j] * columns[j] == target``, or None.

    ``columns`` are equal-length exact vectors (``int`` or ``Fraction``
    entries).  The returned solution is deterministic (Bland's rule) and
    verified against the full system before being handed back.
    """
    if not columns:
        return None if any(v != 0 for v in target) else []
    n = len(columns)
    rows = _presolve(columns, target)
    if rows is None:
        return None
    if not rows:
        return [ZERO] * n

    # Solve for y = x * bscale / scale, whose columns and right-hand side
    # are integral.  The true tableau entry is tableau[i][j] / den, and
    # column n holds the right-hand side: tableau[i][n] / den is the basic
    # variable of row i.  The starting basis is one artificial variable
    # per row; artificial columns are never explicit because they never
    # re-enter.
    scale = lcm(*(v.denominator for coeffs, _ in rows for v in coeffs))
    bscale = lcm(*(b.denominator for _, b in rows))
    tableau: list[list[int]] = []
    basis: list[int] = []  # original j, or n + i for the artificial of row i
    for i, (coeffs, b) in enumerate(rows):
        sign = -1 if b < 0 else 1
        row = [sign * v.numerator * (scale // v.denominator) for v in coeffs]
        row.append(sign * b.numerator * (bscale // b.denominator))
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
        for i in range(m):
            if i == leaving:
                continue
            row = tableau[i]
            factor = row[entering]
            if factor != 0:
                tableau[i] = [(pivot * a - factor * p) // den for a, p in zip(row, pivot_row)]
            elif pivot != den:
                tableau[i] = [pivot * a // den for a in row]
        factor = objective[entering]
        objective = [(pivot * a - factor * p) // den for a, p in zip(objective, pivot_row)]
        basis[leaving] = entering
        den = pivot

    if any(tableau[i][n] != 0 for i in range(m) if basis[i] >= n):
        return None
    solution = [ZERO] * n
    support = []
    for i in range(m):
        j = basis[i]
        if j < n and tableau[i][n] != 0:
            solution[j] = Fraction(tableau[i][n] * scale, den * bscale)
            support.append((j, solution[j]))
    # The check shares no scaling with the tableau: exact fractions against
    # the caller's full system.
    for i, target_value in enumerate(target):
        if sum(x * columns[j][i] for j, x in support) != target_value:
            raise AssertionError("simplex returned a vector that fails verification")
    return solution
