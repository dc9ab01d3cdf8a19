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
from math import lcm
from operator import mul
from typing import Optional

from .constructors import ClassicalModel, enumerate_functions
from .corrcore import Correlation, DeterministicPair
from .errors import NotSynchronousError, SetMismatchError
from .simplex import SparseColumns, find_nonnegative_combination


def compose(q: Correlation, p: Correlation) -> Correlation:
    """The correlation ``q . p``; requires ``q`` to consume ``p``'s outputs."""
    if q.input_set != p.output_set:
        raise SetMismatchError(
            f"cannot compose: outer input set {q.input_set.labels!r} differs from "
            f"inner output set {p.output_set.labels!r}"
        )
    # Column c of q . p is q's integer matrix, over dq, the lcm of q's
    # column lcms, times p's column c over its lcm: integer dot products
    # over dq * p.lcms[c], in any terms.
    dq = lcm(*q.lcms)
    scales = [dq // e for e in q.lcms]
    q_rows = [list(map(mul, row, scales)) for row in zip(*q.columns)]
    columns = [[sum(map(mul, row, column)) for row in q_rows] for column in p.columns]
    return Correlation._from_columns(
        p.input_set, q.output_set, [dq * e for e in p.lcms], columns
    )


def is_synchronous(p: Correlation) -> bool:
    """Equal inputs force equal outputs."""
    ny = p.output_set.size
    off_diagonal = [r for r in range(ny * ny) if r // ny != r % ny]
    for x in range(p.input_set.size):
        column = p.columns[p.input_set.pair_index(x, x)]
        if any(column[r] for r in off_diagonal):
            return False
    return True


def is_nonsignaling(p: Correlation) -> bool:
    """Each player's marginal is independent of the other player's input.

    Each column's two marginals are sums of slices of its integer
    numerators, brought over ``D``, the lcm of all column lcms, by one
    multiplication each.  Column ``(xa, xb)`` is then compared with
    ``(xa, 0)`` and ``(0, xb)``, both already seen in index order, by
    plain equality.
    """
    nx, ny = p.input_set.size, p.output_set.size
    d = lcm(*p.lcms)
    alice, bob = [], []
    for c, (e, nums) in enumerate(zip(p.lcms, p.columns)):
        scale = d // e
        a = [sum(nums[k : k + ny]) * scale for k in range(0, ny * ny, ny)]
        b = [sum(nums[k::ny]) * scale for k in range(ny)]
        alice.append(a)
        bob.append(b)
        xa, xb = divmod(c, nx)
        if a != alice[xa * nx] or b != bob[xb]:
            return False
    return True


def is_symmetric(p: Correlation) -> bool:
    """Swapping both players' inputs and outputs leaves ``p`` unchanged.

    The swap sends the flat pair index ``a * n + b`` to ``b * n + a``, and
    ``p`` is symmetric when each column ``c`` equals column ``swap(c)`` with
    its rows swapped.  A column's lcm and numerators are canonical, so that
    holds exactly when the two lcms are equal and the swapped numerators
    match.  Each column ``c <= swap(c)`` is compared once.
    """
    nx, ny = p.input_set.size, p.output_set.size
    swapped_rows = [r % ny * ny + r // ny for r in range(ny * ny)]
    for c in range(nx * nx):
        t = c % nx * nx + c // nx
        if c <= t:
            twin = p.columns[t]
            if p.lcms[c] != p.lcms[t] or list(p.columns[c]) != [twin[s] for s in swapped_rows]:
                return False
    return True


def is_deterministic(p: Correlation) -> Optional[DeterministicPair]:
    """The answer tables when every column is a point mass, else None.

    A column sums to 1, so it is a point mass exactly when its lcm is 1:
    its nonnegative integer numerators then hold one 1.
    """
    if any(d != 1 for d in p.lcms):
        return None
    nx = p.input_set.size
    f_a = [[0] * nx for _ in range(nx)]
    f_b = [[0] * nx for _ in range(nx)]
    for i, j in p.input_set.pairs():
        ya, yb = p.output_set.pair_of(p.columns[p.input_set.pair_index(i, j)].index(1))
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
def _strategies(nx: int, ny: int) -> tuple[tuple[tuple[int, ...], ...], SparseColumns]:
    """Every function ``X -> Y`` as an index tuple, and its sparse LP column.

    Both are built once per shape, and the columns are validated and
    indexed once, as :class:`SparseColumns`.  The function tuples become the
    keys of returned models, so all models of one shape share them instead
    of each holding copies (about a quarter of a kept model's memory).  Function
    ``f`` puts a 1 at output pair ``(f(i), f(j))`` of every input pair
    ``(i, j)``: its column has the ``|X|^2`` entries
    ``((f(i) * |Y| + f(j)) * |X|^2 + (i * |X| + j), 1)``, the flat row-major
    indices of those entries in a correlation matrix.  The cache holds only
    immutable tuples, and each ``(row, 1)`` entry once: the 3125 columns of
    a 5 -> 5 shape and their functions take about 1 MB, and the columns'
    row bitmasks about 0.25 MB more.
    """
    functions = tuple(enumerate_functions(nx, ny))
    m = nx * nx
    pairs = [(c, divmod(c, nx)) for c in range(m)]
    entries = [(r, 1) for r in range(ny * ny * m)]  # shared by every column
    columns = tuple(
        tuple(entries[(f[i] * ny + f[j]) * m + c] for c, (i, j) in pairs) for f in functions
    )
    return functions, SparseColumns(columns)


def classical_decomposition(p) -> Optional[ClassicalModel]:
    """An exact measure on shared strategies reproducing ``p``, or None.

    Solves the feasibility problem over all ``|Y| ** |X|`` deterministic
    strategy columns with an exact phase-one simplex, so every
    non-classical input, asymmetric and signaling ones included, yields
    None.  ``p`` must be synchronous, else :class:`NotSynchronousError`.
    Every mixture of shared functions is symmetric and nonsignaling, so
    ``morphology.Analysis``, which already knows whether ``p`` is both,
    skips the call when it is not.  ``p`` may be a correlation or its
    ``morphology.analyze(p)``, whose kept synchronicity is then read
    instead of decided again.  The caller can re-expand the returned model
    to confirm it.

    The LP's target is ``D * p`` in integers, with ``D`` the lcm of the
    column lcms, flattened row-major; its solution is ``D`` times the
    measure.  A positive scale of the target changes no reduced-cost sign
    and no ratio order, so the pivots and the vertex are those of ``p``.
    """
    import syncgames.morphology as morphology  # see classify

    a = morphology.analyze(p)
    if not a.synchronous:
        raise NotSynchronousError("classical decompositions exist only for synchronous inputs")
    p = a.p
    functions, columns = _strategies(p.input_set.size, p.output_set.size)
    d = lcm(*p.lcms)
    scales = [d // e for e in p.lcms]
    target = list(chain.from_iterable(map(mul, row, scales) for row in zip(*p.columns)))
    solution = find_nonnegative_combination(columns, target)
    if solution is None:
        return None
    # The measure is x / d; the x are brought over the lcm e of theirs.
    support = [(f, x) for f, x in zip(functions, solution) if x]
    e = lcm(*(x.denominator for _, x in support))
    return ClassicalModel._from_integers(
        p.input_set,
        p.output_set,
        tuple(f for f, _ in support),
        [x.numerator * (e // x.denominator) for _, x in support],
        e * d,
    )


@dataclass(frozen=True, slots=True)
class ClassLabel:
    """Bundle of membership flags for one correlation.

    A snapshot of the class facts of ``morphology.analyze(p)``.
    ``deterministic`` carries the answer tables when defined, and
    ``classical`` carries a reproducing measure when one was found.
    ``classical_decided`` records whether classical membership was decided;
    it always equals ``synchronous``.  It holds no reference to ``p`` or to
    the analysis, so a kept label stays small.
    """

    synchronous: bool
    nonsignaling: bool
    symmetric: bool
    deterministic: Optional[DeterministicPair]
    classical: Optional[ClassicalModel]
    classical_decided: bool


def classify(p: Correlation) -> ClassLabel:
    """Evaluate every membership predicate on ``p``, through one analysis."""
    # Imported here because morphology imports this module; absolute, because
    # a relative import resolves the package through a Python-level property
    # on every call.
    import syncgames.morphology as morphology

    a = morphology.analyze(p)
    return ClassLabel(
        a.synchronous, a.nonsignaling, a.symmetric, a.deterministic, a.classical, a.synchronous
    )
