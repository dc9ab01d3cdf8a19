"""Test oracles for quantum models, on ``GaussianRational`` matrices.

:func:`validate_projections` and :func:`evaluate_quantum_model` are the
projection checks and the trace formula written out with the ``gr_*``
helpers, references for the library's integer validation and evaluation.
:func:`compose_quantum_models` evaluates two chained models on the tensor
product; by theorem the result equals ``compose`` of the two evaluated
models, so the library needs only :func:`~syncgames.from_quantum_model`.
"""

from fractions import Fraction

from syncgames import (
    Correlation,
    QuantumModel,
    SetMismatchError,
    ShapeMismatchError,
    gaussian,
    gr_add,
    gr_conj_transpose,
    gr_identity,
    gr_kron,
    gr_matrix,
    gr_mul,
    gr_trace_product,
    make_correlation,
    validate_quantum_model,
)
from syncgames.errors import NotCompleteError, NotHermitianError, NotIdempotentError

ZERO = Fraction(0)


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
