"""Test oracle: evaluate two chained quantum models on the tensor product.

By theorem the result equals ``compose`` of the two evaluated models, so the
library needs only :func:`~syncgames.from_quantum_model`; the tests use this
direct evaluation to check that identity.
"""

from fractions import Fraction

from syncgames import (
    Correlation,
    QuantumModel,
    SetMismatchError,
    ShapeMismatchError,
    gr_add,
    gr_kron,
    gr_trace_product,
    make_correlation,
    validate_quantum_model,
)

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
    rows = output_set.pair_count
    cols = input_set.pair_count
    matrix = [[ZERO] * cols for _ in range(rows)]
    for xa, xb in input_set.pairs():
        c = input_set.pair_index(xa, xb)
        for za, zb in output_set.pairs():
            value = gr_trace_product(effects[xa][za], effects[xb][zb])
            if value.imag != 0:
                raise ShapeMismatchError(
                    "trace of a product of Hermitian operators must be real"
                )
            matrix[output_set.pair_index(za, zb)][c] = value.real / dim
    return make_correlation(input_set, output_set, matrix)
