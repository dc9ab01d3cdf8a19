"""Exact search for a left or right inverse of a correlation, per category.

A test-only reference for the section and retraction deciders that shares
no code with them.  Both inverses of ``p: X -> Y`` are correlations
``q: Y -> X``: a left inverse has ``q . p`` equal to the identity on
``X``, a right inverse has ``p . q`` equal to the identity on ``Y``.

* ``S``, ``NS`` and ``Q``: the entries of ``q`` are the unknowns of one
  feasibility linear program, solved exactly by the library's
  :func:`find_nonnegative_combination` over its columns wrapped in
  :class:`SparseColumns`.  Its rows say that each column of
  ``q`` sums to one and that the composition is the identity entry by
  entry.  ``q`` is synchronous because an entry ``q(a | b)`` with ``b`` on
  the diagonal and ``a`` off it is not an unknown at all.  For ``NS`` more
  rows say that each player's marginal does not depend on the other
  player's input, and for ``Q`` that ``q`` is also symmetric.
* ``HV``: every shared function ``g: Y -> X`` is tried.  This is exact.
  The identity is a vertex of the polytope of correlations, so when a
  mixture of shared functions composes to it, each function in the
  mixture's support does too.
"""

from __future__ import annotations

from fractions import Fraction

from syncgames import compose, from_function_indices, identity
from syncgames.constructors import enumerate_functions
from syncgames.simplex import SparseColumns, find_nonnegative_combination

SIDES = ("left", "right")


def inverse_exists(p, tag: str, side: str) -> bool:
    """Is there a ``q`` in category ``tag`` with ``q . p`` (left) or
    ``p . q`` (right) the identity?  ``p`` must lie in ``tag``."""
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    if tag == "HV":
        return _shared_function_inverse(p, side)
    return _lp_inverse(p, tag, side)


def _shared_function_inverse(p, side: str) -> bool:
    xs, ys = p.input_set, p.output_set
    for g in enumerate_functions(ys.size, xs.size):
        q = from_function_indices(ys, xs, g)
        if side == "left" and compose(q, p) == identity(xs):
            return True
        if side == "right" and compose(p, q) == identity(ys):
            return True
    return False


def _lp_inverse(p, tag: str, side: str) -> bool:
    xs, ys = p.input_set, p.output_set
    x_pairs, y_pairs = list(xs.pairs()), list(ys.pairs())
    # unknown (a, b) is q(a | b): ``a`` a pair of X (q's answers), ``b`` a pair of Y
    unknowns = [
        (a, b) for b in y_pairs for a in x_pairs if b[0] != b[1] or a[0] == a[1]
    ]
    index = {u: k for k, u in enumerate(unknowns)}
    rows: list[tuple[dict, Fraction]] = []

    def entry(out_pair, in_pair):
        return p.matrix[ys.pair_index(*out_pair)][xs.pair_index(*in_pair)]

    for b in y_pairs:
        rows.append(({index[a, b]: 1 for a in x_pairs if (a, b) in index}, Fraction(1)))
    if side == "left":
        # (q . p)(a | c) = sum over b of q(a | b) p(b | c)
        for a in x_pairs:
            for c in x_pairs:
                coeffs = {index[a, b]: entry(b, c) for b in y_pairs if (a, b) in index}
                rows.append((coeffs, Fraction(int(a == c))))
    else:
        # (p . q)(d | b) = sum over a of p(d | a) q(a | b)
        for d in y_pairs:
            for b in y_pairs:
                coeffs = {index[a, b]: entry(d, a) for a in x_pairs if (a, b) in index}
                rows.append((coeffs, Fraction(int(d == b))))
    if tag in ("NS", "Q"):
        rows.extend(_nonsignaling_rows(xs.size, ys.size, index))
    if tag == "Q":
        # q(a | b) = q(swapped a | swapped b)
        for (a, b), k in index.items():
            twin = index[a[::-1], b[::-1]]
            if twin > k:
                rows.append(({k: 1, twin: -1}, Fraction(0)))
    # Row r's dict holds one coefficient per unknown: entry (r, value) of
    # that unknown's sparse column.
    columns = [[] for _ in unknowns]
    for r, (coeffs, _) in enumerate(rows):
        for k, value in coeffs.items():
            columns[k].append((r, value))
    target = [value for _, value in rows]
    return find_nonnegative_combination(SparseColumns(columns), target) is not None


def _nonsignaling_rows(nx: int, ny: int, index: dict):
    """Each player's marginal of ``q`` equals its value with the other
    player's input replaced by the first label."""

    def marginal(player: int, x: int, b):
        coeffs = {}
        for other in range(nx):
            a = (x, other) if player == 0 else (other, x)
            if (a, b) in index:
                coeffs[index[a, b]] = 1
        return coeffs

    for own in range(ny):
        for other in range(1, ny):
            for player in (0, 1):
                b = (own, other) if player == 0 else (other, own)
                ref = (own, 0) if player == 0 else (0, own)
                for x in range(nx):
                    coeffs = marginal(player, x, b)
                    for k, value in marginal(player, x, ref).items():
                        coeffs[k] = coeffs.get(k, 0) - value
                    yield coeffs, Fraction(0)
