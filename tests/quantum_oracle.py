"""Test oracles for quantum models, on ``GaussianRational`` matrices.

``GaussianRational`` is a plain value with no arithmetic.  The ``g_*``
functions are complex arithmetic on one entry, over its ``real`` and
``imag``, and the ``gr_*`` helpers are plain matrix algebra built on them.
:func:`random_unitary` is the library generator's unitary as such a
matrix.  :func:`validate_projections` and :func:`evaluate_quantum_model`
are the projection checks and the trace formula written out with them,
references for the library's integer validation and evaluation, and
:func:`reference_random_quantum_model` is the seeded generator written as
full matrix products, the reference for the library's row operations.
:func:`compose_quantum_models` evaluates two chained models on the tensor
product; by theorem the result equals ``compose`` of the two evaluated
models, so the library needs only :func:`~syncgames.from_quantum_model`.
"""

import random
from fractions import Fraction
from functools import reduce
from typing import Sequence

from syncgames import (
    Correlation,
    GaussianRational,
    QuantumModel,
    SetMismatchError,
    ShapeMismatchError,
    gaussian,
    make_correlation,
    validate_quantum_model,
)
from syncgames.constructors import _PYTHAGOREAN_TRIPLES, _unitary_parts
from syncgames.errors import NotCompleteError, NotHermitianError, NotIdempotentError

ZERO = Fraction(0)
ONE = Fraction(1)

GR_ZERO = GaussianRational(ZERO, ZERO)
GR_ONE = GaussianRational(ONE, ZERO)
GR_I = GaussianRational(ZERO, ONE)


def g_add(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    return GaussianRational(a.real + b.real, a.imag + b.imag)


def g_sub(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    return GaussianRational(a.real - b.real, a.imag - b.imag)


def g_mul(a: GaussianRational, b: GaussianRational) -> GaussianRational:
    return GaussianRational(
        a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real
    )


def g_neg(a: GaussianRational) -> GaussianRational:
    return GaussianRational(-a.real, -a.imag)


def g_conjugate(a: GaussianRational) -> GaussianRational:
    return GaussianRational(a.real, -a.imag)


def g_is_zero(a: GaussianRational) -> bool:
    return a.real == 0 and a.imag == 0


def gr_matrix(rows: Sequence[Sequence[GaussianRational]]) -> tuple:
    return tuple(tuple(row) for row in rows)


def gr_identity(d: int) -> tuple:
    return tuple(
        tuple(GR_ONE if i == j else GR_ZERO for j in range(d)) for i in range(d)
    )


def gr_add(a, b) -> tuple:
    return tuple(
        tuple(g_add(x, y) for x, y in zip(row_a, row_b)) for row_a, row_b in zip(a, b)
    )


def gr_mul(a, b) -> tuple:
    size_inner = len(b)
    cols = len(b[0])
    return tuple(
        tuple(
            reduce(g_add, (g_mul(row_a[k], b[k][c]) for k in range(size_inner)), GR_ZERO)
            for c in range(cols)
        )
        for row_a in a
    )


def gr_conj_transpose(a) -> tuple:
    rows = len(a)
    cols = len(a[0])
    return tuple(tuple(g_conjugate(a[r][c]) for r in range(rows)) for c in range(cols))


def gr_kron(a, b) -> tuple:
    da = len(a)
    db = len(b)
    return tuple(
        tuple(g_mul(a[i // db][j // db], b[i % db][j % db]) for j in range(da * db))
        for i in range(da * db)
    )


def gr_trace_product(a, b) -> GaussianRational:
    """``trace(a @ b)`` without forming the product matrix."""
    d = len(a)
    total = GR_ZERO
    for i in range(d):
        for j in range(d):
            total = g_add(total, g_mul(a[i][j], b[j][i]))
    return total


def random_unitary(dimension: int, rng: random.Random) -> tuple:
    """The exact unitary of the library generator, from its integer parts."""
    den, re, im = _unitary_parts(dimension, rng)
    return tuple(
        tuple(GaussianRational(Fraction(x, den), Fraction(y, den)) for x, y in zip(*rows))
        for rows in zip(re, im)
    )


def reference_random_unitary(dimension: int, rng: random.Random) -> tuple:
    """The unitary of the seeded generator, as products of full matrices."""
    u = gr_identity(dimension)
    powers = (GR_ONE, GR_I, g_neg(GR_ONE), g_neg(GR_I))
    for _ in range(dimension * dimension):
        phase_row = tuple(
            tuple(
                powers[rng.randrange(4)] if r == c else GR_ZERO for c in range(dimension)
            )
            for r in range(dimension)
        )
        u = gr_mul(phase_row, u)
        if dimension < 2:
            continue
        i = rng.randrange(dimension)
        j = rng.randrange(dimension - 1)
        if j >= i:
            j += 1
        i, j = min(i, j), max(i, j)
        a, b, c = rng.choice(_PYTHAGOREAN_TRIPLES)
        if rng.randrange(2):
            a, b = b, a
        cos = GaussianRational(Fraction(a, c))
        sin = GaussianRational(Fraction(b, c))
        rotation = [
            [GR_ONE if r == s else GR_ZERO for s in range(dimension)]
            for r in range(dimension)
        ]
        rotation[i][i] = cos
        rotation[i][j] = g_neg(sin)
        rotation[j][i] = sin
        rotation[j][j] = cos
        u = gr_mul(gr_matrix(rotation), u)
    return u


def reference_random_quantum_model(input_set, output_set, dimension: int, seed: int):
    """``u diag u^*`` per output, with the library generator's random draws."""
    rng = random.Random(seed)
    ny = output_set.size
    families = []
    for _ in range(input_set.size):
        assignment = [l % ny for l in range(dimension)]
        rng.shuffle(assignment)
        u = reference_random_unitary(dimension, rng)
        u_dag = gr_conj_transpose(u)
        family = []
        for y in range(ny):
            diag = tuple(
                tuple(
                    (GR_ONE if (r == c and assignment[r] == y) else GR_ZERO)
                    for c in range(dimension)
                )
                for r in range(dimension)
            )
            family.append(gr_mul(gr_mul(u, diag), u_dag))
        families.append(tuple(family))
    return QuantumModel(input_set, output_set, dimension, tuple(families))


def compose_quantum_models(outer: QuantumModel, inner: QuantumModel) -> Correlation:
    """Correlation of the chained strategy on the tensor product space.

    For ``inner`` on inputs ``X`` with outputs ``Y`` and ``outer`` on
    inputs ``Y`` with outputs ``Z``, the product operators

        E[x][z] = sum over y of  kron(inner.pvm[x][y], outer.pvm[y][z])

    sum to the identity for each ``x`` and are Hermitian and positive, but
    need not be projections, so they are evaluated directly in the
    normalized trace without any projection validation.
    """
    if outer.input_set != inner.output_set:
        raise SetMismatchError(
            "outer model must consume the inner model's output set"
        )
    validate_quantum_model(inner)
    validate_quantum_model(outer)
    input_set = inner.input_set
    output_set = outer.output_set
    dim = Fraction(inner.dimension * outer.dimension)
    effects = []
    for x in range(input_set.size):
        row = []
        for z in range(output_set.size):
            total = None
            for y in range(inner.output_set.size):
                term = gr_kron(inner.pvm[x][y], outer.pvm[y][z])
                total = term if total is None else gr_add(total, term)
            row.append(total)
        effects.append(row)
    return _trace_correlation(input_set, output_set, effects, dim)


def validate_projections(model: QuantumModel) -> None:
    """Hermiticity, idempotency and completeness, in the library's order."""
    d = model.dimension
    for i, x_label in enumerate(model.input_set.labels):
        total = gr_matrix([[gaussian(0)] * d for _ in range(d)])
        for y, y_label in enumerate(model.output_set.labels):
            matrix = model.pvm[i][y]
            if matrix != gr_conj_transpose(matrix):
                raise NotHermitianError(x_label, y_label)
            if gr_mul(matrix, matrix) != matrix:
                raise NotIdempotentError(x_label, y_label)
            total = gr_add(total, matrix)
        if total != gr_identity(d):
            raise NotCompleteError(x_label)


def evaluate_quantum_model(model: QuantumModel) -> Correlation:
    """``trace(P[xa][ya] P[xb][yb]) / d`` for every entry, in ``GaussianRational``s."""
    validate_projections(model)
    return _trace_correlation(
        model.input_set, model.output_set, model.pvm, Fraction(model.dimension)
    )


def _trace_correlation(input_set, output_set, operators, dim) -> Correlation:
    rows = output_set.pair_count
    cols = input_set.pair_count
    matrix = [[ZERO] * cols for _ in range(rows)]
    for xa, xb in input_set.pairs():
        c = input_set.pair_index(xa, xb)
        for za, zb in output_set.pairs():
            value = gr_trace_product(operators[xa][za], operators[xb][zb])
            if value.imag != 0:
                raise ShapeMismatchError(
                    "trace of a product of Hermitian operators must be real"
                )
            matrix[output_set.pair_index(za, zb)][c] = value.real / dim
    return make_correlation(input_set, output_set, matrix)
