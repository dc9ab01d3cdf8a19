"""Composition and membership predicates for correlation classes.

Correlations compose like conditional probabilities,

    (q . p)(z_a, z_b | x_a, x_b)
        = sum over (y_a, y_b) of q(z_a, z_b | y_a, y_b) p(y_a, y_b | x_a, x_b),

which is exactly the matrix product of the two column-stochastic
matrices.  The predicates here decide the standard classes:
synchronicity, nonsignaling, symmetry, determinism, and classicality,
the last by an exact linear program over all shared deterministic
strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from fractions import Fraction
from typing import Optional

from .constructors import ClassicalModel, classical_model, enumerate_functions
from .corrcore import ONE, ZERO, Correlation, DeterministicPair, common_denominator
from .errors import NotSynchronousError, SetMismatchError
from .simplex import find_nonnegative_combination


def compose(q: Correlation, p: Correlation) -> Correlation:
    """The correlation ``q . p``; requires ``q`` to consume ``p``'s outputs."""
    if q.input_set != p.output_set:
        raise SetMismatchError(
            f"cannot compose: outer input set {q.input_set.labels!r} differs from "
            f"inner output set {p.output_set.labels!r}"
        )
    # Each row of q and each column of p over its own lcm: integer dot
    # products, then one Fraction per entry.
    q_rows = []
    for row in q.matrix:
        d, nums = common_denominator(row)
        q_rows.append((d, [(k, v) for k, v in enumerate(nums) if v]))
    p_cols = [common_denominator(column) for column in zip(*p.matrix)]
    matrix = []
    for dq, nonzero in q_rows:
        out_row = []
        for dp, col in p_cols:
            dot = sum(v * col[k] for k, v in nonzero)
            out_row.append(Fraction(dot, dq * dp) if dot else ZERO)
        matrix.append(tuple(out_row))
    return Correlation(p.input_set, q.output_set, tuple(matrix))


def is_synchronous(p: Correlation) -> bool:
    """Equal inputs force equal outputs."""
    ny = p.output_set.size
    for x in range(p.input_set.size):
        c = p.input_set.pair_index(x, x)
        for ya in range(ny):
            for yb in range(ny):
                if ya != yb and p.matrix[p.output_set.pair_index(ya, yb)][c] != 0:
                    return False
    return True


def is_nonsignaling(p: Correlation) -> bool:
    """Each player's marginal is independent of the other player's input.

    Each column is cleared over its own lcm ``d`` and its two marginals are
    summed in ``int``s.  Column ``(xa, xb)`` is compared with ``(xa, 0)``
    and ``(0, xb)``, both already seen in index order, by cross-multiplying
    with the other column's ``d``.
    """
    ny = p.output_set.size
    marginals = []
    for c, column in enumerate(zip(*p.matrix)):
        d, nums = common_denominator(column)
        rows = [nums[ya * ny : (ya + 1) * ny] for ya in range(ny)]
        a, b = [sum(row) for row in rows], [sum(col) for col in zip(*rows)]
        marginals.append((d, a, b))
        xa, xb = p.input_set.pair_of(c)
        d_a, a_ref, _ = marginals[p.input_set.pair_index(xa, 0)]
        d_b, _, b_ref = marginals[p.input_set.pair_index(0, xb)]
        if any(u * d_a != v * d for u, v in zip(a, a_ref)):
            return False
        if any(u * d_b != v * d for u, v in zip(b, b_ref)):
            return False
    return True


def is_symmetric(p: Correlation) -> bool:
    """Swapping both players' inputs and outputs leaves ``p`` unchanged.

    The swap sends the flat pair index ``a * n + b`` to ``b * n + a``.  Each
    entry is compared with its swapped entry once: rows ``r < swap(r)``
    against their swapped row at every column, and each row fixed by the
    swap against itself at the columns ``c < swap(c)``.
    """
    nx, ny = p.input_set.size, p.output_set.size
    swapped_columns = [c % nx * nx + c // nx for c in range(nx * nx)]
    low = [c for c, t in enumerate(swapped_columns) if c < t]
    high = [swapped_columns[c] for c in low]
    swapped_rows = [r % ny * ny + r // ny for r in range(ny * ny)]
    for r, s in enumerate(swapped_rows):
        row = p.matrix[r]
        if r < s:
            twin = p.matrix[s]
            if list(row) != [twin[t] for t in swapped_columns]:
                return False
        elif r == s and [row[c] for c in low] != [row[t] for t in high]:
            return False
    return True


def is_deterministic(p: Correlation) -> Optional[DeterministicPair]:
    """The answer tables when every column is a point mass, else None."""
    nx = p.input_set.size
    f_a = [[0] * nx for _ in range(nx)]
    f_b = [[0] * nx for _ in range(nx)]
    for i, j in p.input_set.pairs():
        c = p.input_set.pair_index(i, j)
        hit = None
        for r in range(p.row_count):
            value = p.matrix[r][c]
            if value != 0:
                if value != ONE or hit is not None:
                    return None
                hit = r
        ya, yb = p.output_set.pair_of(hit)
        f_a[i][j] = ya
        f_b[i][j] = yb
    return DeterministicPair(
        p.input_set,
        p.output_set,
        tuple(tuple(row) for row in f_a),
        tuple(tuple(row) for row in f_b),
    )


def deterministic_function(p: Correlation) -> Optional[tuple[int, ...]]:
    """Output indices of a shared one-variable strategy, if ``p`` is one.

    Returns ``f`` with ``p`` equal to both players applying ``f`` to their
    own input, or None.
    """
    pair = is_deterministic(p)
    return None if pair is None else pair.shared_function()


@lru_cache(maxsize=8)
def _strategies(
    nx: int, ny: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """Every function ``X -> Y`` as an index tuple, and its sparse LP column.

    Both are built once per shape.  The function tuples become the keys of
    returned models, so all models of one shape share them instead of each
    holding copies (about a quarter of a kept model's memory).  Function
    ``f`` puts a 1 at output pair ``(f(i), f(j))`` of every input pair
    ``(i, j)``: its column has the ``|X|^2`` entries
    ``((f(i) * |Y| + f(j)) * |X|^2 + (i * |X| + j), 1)``, the flat row-major
    indices of those entries in a correlation matrix.  The cache holds only
    immutable tuples, and each ``(row, 1)`` entry once: the 3125 columns of
    a 5 -> 5 shape and their functions take about 1 MB.
    """
    functions = tuple(enumerate_functions(nx, ny))
    m = nx * nx
    pairs = [(c, divmod(c, nx)) for c in range(m)]
    entries = [(r, 1) for r in range(ny * ny * m)]  # shared by every column
    columns = tuple(
        tuple(entries[(f[i] * ny + f[j]) * m + c] for c, (i, j) in pairs) for f in functions
    )
    return functions, columns


def classical_decomposition(p: Correlation) -> Optional[ClassicalModel]:
    """An exact measure on shared strategies reproducing ``p``, or None.

    Solves the feasibility problem over all ``|Y| ** |X|`` deterministic
    strategy columns with an exact phase-one simplex, so every
    non-classical input, asymmetric and signaling ones included, yields
    None.  ``p`` must be synchronous.  Every mixture of shared functions
    is symmetric and nonsignaling, so callers that already know ``p`` is
    not both (:func:`classify`, ``morphology.Analysis``) skip the call.
    The caller can re-expand the returned model to confirm it.
    """
    if not is_synchronous(p):
        raise NotSynchronousError("classical decompositions exist only for synchronous inputs")
    nx = p.input_set.size
    ny = p.output_set.size
    functions, columns = _strategies(nx, ny)
    solution = find_nonnegative_combination(columns, list(chain.from_iterable(p.matrix)))
    if solution is None:
        return None
    mu = {f: value for f, value in zip(functions, solution) if value != 0}
    return classical_model(p.input_set, p.output_set, mu)


@dataclass(frozen=True, slots=True)
class ClassLabel:
    """Bundle of membership flags for one correlation.

    ``deterministic`` carries the answer tables when defined, and
    ``classical`` carries a reproducing measure when one was found.
    ``classical_decided`` records whether classical membership was decided;
    it always equals ``synchronous``.  The linear program runs only for
    symmetric nonsignaling inputs; any other is not classical, because
    every mixture of shared functions is symmetric and nonsignaling.
    """

    synchronous: bool
    nonsignaling: bool
    symmetric: bool
    deterministic: Optional[DeterministicPair]
    classical: Optional[ClassicalModel]
    classical_decided: bool


def classify(p: Correlation) -> ClassLabel:
    """Evaluate every membership predicate on ``p``."""
    synchronous = is_synchronous(p)
    nonsignaling = is_nonsignaling(p)
    symmetric = is_symmetric(p)
    deterministic = is_deterministic(p)
    classical = None
    if synchronous and symmetric and nonsignaling:
        classical = classical_decomposition(p)
    return ClassLabel(synchronous, nonsignaling, symmetric, deterministic, classical, synchronous)
