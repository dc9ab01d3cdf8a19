"""Constructions that produce correlations of known classes.

The builders here come in four groups:

* deterministic data: a single function, or one answer table per player;
* mixtures: a probability measure on functions (a classical model) and
  finite-dimensional projective strategies evaluated in the normalized
  trace (a quantum model), both in exact arithmetic;
* blockwise recipes that realize every synchronous nonsignaling or
  classical correlation with a two-point input or output set from small
  amounts of data (a pair of joint distributions, or pairwise weights);
* seeded random generators used by the test batteries, deterministic in
  their seed.

Each construction returns a validated :class:`~syncgames.corrcore.Correlation`
and documents the class its output provably belongs to.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .boole import intersections_to_atoms, pairwise_intersection_vector
from .corrcore import (
    ONE,
    ZERO,
    Correlation,
    DeterministicPair,
    FiniteSet,
    PairDistribution,
    PairWeights,
    _point_masses,
    as_rational,
    common_denominator,
    format_rational,
    make_correlation,
    parse_labels,
    parse_rational,
)
from .errors import (
    ConditionViolatedError,
    DomainTooSmallError,
    MarginalMismatchError,
    NotCompleteError,
    NotHermitianError,
    NotIdempotentError,
    NotSymmetricError,
    ParseError,
    SetMismatchError,
    ShapeMismatchError,
    UnknownLabelError,
    UnsupportedShapeError,
    WeightsNotNormalizedError,
)

BINARY = FiniteSet(("0", "1"))
TERNARY = FiniteSet(("0", "1", "2"))


def enumerate_functions(domain_size: int, codomain_size: int) -> Iterator[tuple[int, ...]]:
    """All functions as output-index tuples, in lexicographic order."""
    return itertools.product(range(codomain_size), repeat=domain_size)


# ---------------------------------------------------------------------------
# Deterministic constructions.
# ---------------------------------------------------------------------------


def from_function_indices(
    input_set: FiniteSet, output_set: FiniteSet, f: Sequence[int]
) -> Correlation:
    """Correlation of both players answering ``f`` applied to their own input."""
    n = input_set.size
    m = output_set.size
    if len(f) != n or any(not 0 <= v < m for v in f):
        raise ShapeMismatchError(f"need {n} output indices below {m}, got {f!r}")
    return _point_masses(
        input_set, output_set, [output_set.pair_index(f[i], f[j]) for i, j in input_set.pairs()]
    )


def from_function(
    input_set: FiniteSet, output_set: FiniteSet, mapping: Mapping[str, str]
) -> Correlation:
    """Correlation of a shared deterministic strategy ``mapping: X -> Y``.

    The output is synchronous, nonsignaling, symmetric and classical.
    """
    for key in mapping:
        if key not in input_set.labels:
            raise UnknownLabelError(key, input_set.labels)
    f = []
    for label in input_set.labels:
        if label not in mapping:
            raise UnknownLabelError(label, tuple(mapping))
        f.append(output_set.index(mapping[label]))
    return from_function_indices(input_set, output_set, tuple(f))


def from_deterministic_pair(pair: DeterministicPair) -> Correlation:
    """Correlation of two individual answer tables; may signal."""
    output_set = pair.output_set
    return _point_masses(
        pair.input_set,
        output_set,
        [output_set.pair_index(*pair.image_pair(i, j)) for i, j in pair.input_set.pairs()],
    )


# ---------------------------------------------------------------------------
# Classical models: probability measures on shared deterministic strategies.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ClassicalModel:
    """A probability measure on functions ``X -> Y``.

    Built as ``ClassicalModel(input_set, output_set, weights)`` from
    ``(function, weight)`` pairs, each function a tuple of output indices of
    length ``|X|``.  Construction canonicalizes: zero weights are dropped,
    the functions are sorted, and the weights are stored as integer
    ``numerators`` over one ``denominator``, the lcm of their denominators.
    So equal measures give equal fields and equal hashes whatever the order
    or form of the pairs.  ``weights``, ``mu`` and ``support()`` are views
    that build the ``Fraction`` weights on request.
    """

    input_set: FiniteSet
    output_set: FiniteSet
    functions: tuple[tuple[int, ...], ...]
    numerators: tuple[int, ...]
    denominator: int

    def __init__(
        self,
        input_set: FiniteSet,
        output_set: FiniteSet,
        weights: Iterable[tuple[Sequence[int], object]],
    ) -> None:
        n = input_set.size
        m = output_set.size
        seen: dict[tuple[int, ...], Fraction] = {}
        for key, raw in weights:
            key = tuple(key)
            if len(key) != n or any(
                not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < m for v in key
            ):
                raise ShapeMismatchError(
                    f"function key {key!r} is not a length-{n} tuple of indices below {m}"
                )
            if key in seen:
                raise WeightsNotNormalizedError(f"duplicate function key {key!r}")
            weight = as_rational(raw)
            if weight.numerator < 0:
                raise WeightsNotNormalizedError(f"weight of {key!r} is negative: {weight}")
            seen[key] = weight
        functions = tuple(sorted(k for k, w in seen.items() if w))
        denominator, numerators = common_denominator([seen[k] for k in functions])
        if sum(numerators) != denominator:
            total = Fraction(sum(numerators), denominator)
            raise WeightsNotNormalizedError(f"weights sum to {total}, expected 1")
        self._set(input_set, output_set, functions, numerators, denominator)

    @classmethod
    def _from_integers(cls, input_set, output_set, functions, numerators, denominator):
        """The model with weight ``numerators[k] / denominator`` on ``functions[k]``.

        Unchecked: the caller's functions are valid, sorted and distinct,
        and its numerators positive with sum ``denominator``.  Only the
        weights are brought to lowest terms, with one gcd.
        """
        g = math.gcd(denominator, *numerators)
        model = cls.__new__(cls)
        model._set(input_set, output_set, functions, [k // g for k in numerators], denominator // g)
        return model

    def _set(self, input_set, output_set, functions, numerators, denominator) -> None:
        object.__setattr__(self, "input_set", input_set)
        object.__setattr__(self, "output_set", output_set)
        object.__setattr__(self, "functions", functions)
        object.__setattr__(self, "numerators", tuple(numerators))
        object.__setattr__(self, "denominator", denominator)

    @property
    def weights(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        d = self.denominator
        return tuple((f, Fraction(k, d)) for f, k in zip(self.functions, self.numerators))

    @property
    def mu(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.weights)

    def support(self) -> tuple[tuple[int, ...], ...]:
        return self.functions


def classical_model(
    input_set: FiniteSet, output_set: FiniteSet, mu: Mapping[tuple[int, ...], object]
) -> ClassicalModel:
    return ClassicalModel(
        input_set, output_set, tuple((tuple(k), as_rational(v)) for k, v in mu.items())
    )


def from_classical_model(model: ClassicalModel) -> Correlation:
    """Mix the function correlations of ``model`` by its weights.

    The output is synchronous, nonsignaling, symmetric, and classical by
    construction.
    """
    input_set = model.input_set
    output_set = model.output_set
    ny = output_set.size
    pairs = list(input_set.pairs())
    columns = [[0] * output_set.pair_count for _ in pairs]
    for f, k in zip(model.functions, model.numerators):
        for column, (i, j) in zip(columns, pairs):
            column[f[i] * ny + f[j]] += k
    return Correlation._from_columns(
        input_set, output_set, [model.denominator] * len(columns), columns
    )


def _function_key_text(key: tuple[int, ...]) -> str:
    return "(" + ",".join(str(v) for v in key) + ")"


def _parse_function_key(text: str) -> tuple[int, ...]:
    location = f"mu[{text!r}]"
    stripped = text.strip()
    if not (stripped.startswith("(") and stripped.endswith(")")):
        raise ParseError(location, f"function key {text!r} must look like '(0,1)'")
    inner = stripped[1:-1].strip()
    if not inner:
        raise ParseError(location, f"function key {text!r} is empty")
    try:
        return tuple(int(part.strip()) for part in inner.split(","))
    except ValueError as exc:
        raise ParseError(location, str(exc)) from None


def classical_model_to_json_dict(model: ClassicalModel) -> dict:
    return {
        "input_set": list(model.input_set.labels),
        "output_set": list(model.output_set.labels),
        "mu": {_function_key_text(k): format_rational(w) for k, w in model.weights},
    }


def classical_model_from_json_dict(data: Mapping) -> ClassicalModel:
    if not isinstance(data, Mapping):
        raise ParseError("<root>", "expected a JSON object")
    input_set = parse_labels(data.get("input_set"), "input_set")
    output_set = parse_labels(data.get("output_set"), "output_set")
    raw = data.get("mu")
    if not isinstance(raw, Mapping):
        raise ParseError("mu", "expected an object mapping function keys to rationals")
    mu = {}
    for key_text, value in raw.items():
        key = _parse_function_key(key_text)
        if key in mu:
            raise ParseError(f"mu[{key_text!r}]", f"duplicate function key {key!r}")
        mu[key] = parse_rational(value, f"mu[{key_text!r}]")
    return classical_model(input_set, output_set, mu)


# ---------------------------------------------------------------------------
# Exact complex rationals and quantum models.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    A plain value with no arithmetic: the library reads only ``real`` and
    ``imag``, and computes on the integer parts of whole matrices.
    """

    real: Fraction
    imag: Fraction = ZERO


GaussianMatrix = tuple  # tuple of row tuples of GaussianRational


def gaussian(re, im=0) -> GaussianRational:
    return GaussianRational(as_rational(re), as_rational(im))


@dataclass(frozen=True)
class QuantumModel:
    """One projection family per input over a ``dimension``-dimensional space.

    ``pvm[i][y]`` is the projection for input index ``i`` and output index
    ``y``, a ``dimension x dimension`` matrix of :class:`GaussianRational`.
    Shapes are checked on construction; the projection axioms are what
    :func:`validate_quantum_model` decides (and :func:`from_quantum_model`
    enforces).
    """

    input_set: FiniteSet
    output_set: FiniteSet
    dimension: int
    pvm: tuple[tuple[GaussianMatrix, ...], ...]

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ShapeMismatchError("dimension must be at least 1")
        if len(self.pvm) != self.input_set.size:
            raise ShapeMismatchError(
                f"need one projection family per input, got {len(self.pvm)}"
            )
        for family in self.pvm:
            if len(family) != self.output_set.size:
                raise ShapeMismatchError(
                    f"each family needs one projection per output, got {len(family)}"
                )
            for matrix in family:
                if len(matrix) != self.dimension or any(
                    len(row) != self.dimension for row in matrix
                ):
                    raise ShapeMismatchError(
                        f"projections must be {self.dimension} x {self.dimension}"
                    )


def _integer_projections(model: QuantumModel) -> list[list[tuple[int, list[int]]]]:
    """Validate ``model`` exactly and return its projections in integers.

    Each projection ``P`` becomes ``(den, parts)``: ``den`` is the lcm of
    the denominators of its entries and ``parts`` lists the real parts of
    ``den * P`` row by row, then the imaginary parts.  Raises the error of
    the first projection that is not Hermitian or not idempotent, or of
    the first input whose family does not sum to the identity.
    """
    d = model.dimension
    cells = d * d
    families = []
    for i, x_label in enumerate(model.input_set.labels):
        family = []
        for y, y_label in enumerate(model.output_set.labels):
            matrix = model.pvm[i][y]
            entries = [v for row in matrix for v in row]
            den, parts = common_denominator(
                [v.real for v in entries] + [v.imag for v in entries]
            )
            re, im = parts[:cells], parts[cells:]
            for r in range(d):
                for c in range(r, d):
                    if re[r * d + c] != re[c * d + r] or im[r * d + c] != -im[c * d + r]:
                        raise NotHermitianError(x_label, y_label)
            # P * P == P, with A = den * P: A * A == den * A.
            for r in range(d):
                for c in range(d):
                    real = imag = 0
                    for k in range(d):
                        ar, ai = re[r * d + k], im[r * d + k]
                        br, bi = re[k * d + c], im[k * d + c]
                        real += ar * br - ai * bi
                        imag += ar * bi + ai * br
                    if real != den * re[r * d + c] or imag != den * im[r * d + c]:
                        raise NotIdempotentError(x_label, y_label)
            family.append((den, parts))
        total = math.lcm(*(den for den, _ in family))
        summed = [
            sum(parts[k] * (total // den) for den, parts in family) for k in range(2 * cells)
        ]
        identity = [total if k % (d + 1) == 0 else 0 for k in range(cells)] + [0] * cells
        if summed != identity:
            raise NotCompleteError(x_label)
        families.append(family)
    return families


def validate_quantum_model(model: QuantumModel) -> None:
    """Check Hermiticity, idempotency and completeness, exactly."""
    _integer_projections(model)


def from_quantum_model(model: QuantumModel) -> Correlation:
    """Evaluate a projective strategy in the normalized trace.

    ``p(y_a, y_b | x_a, x_b) = trace(P[x_a][y_a] P[x_b][y_b]) / dimension``.
    The model is validated exactly first.  For Hermitian ``A`` and ``B``,
    ``trace(A B)`` is the real number ``sum of A[i][j] * conj(B[i][j])``,
    one integer dot product of the parts of each projection.  With each
    family's parts brought over the lcm ``D[x]`` of its denominators,
    column ``(x_a, x_b)`` is over ``D[x_a] * D[x_b] * dimension``.  The
    output is synchronous, symmetric and nonsignaling.
    """
    scales, families = [], []
    for family in _integer_projections(model):
        d = math.lcm(*(den for den, _ in family))
        scales.append(d)
        families.append([[v * (d // den) for v in parts] for den, parts in family])
    input_set = model.input_set
    output_set = model.output_set
    pairs = list(output_set.pairs())
    columns = [
        [sum(map(mul, families[xa][ya], families[xb][yb])) for ya, yb in pairs]
        for xa, xb in input_set.pairs()
    ]
    return Correlation._from_columns(
        input_set,
        output_set,
        [scales[xa] * scales[xb] * model.dimension for xa, xb in input_set.pairs()],
        columns,
    )


def quantum_model_to_json_dict(model: QuantumModel) -> dict:
    def entry(v: GaussianRational) -> list[str]:
        return [format_rational(v.real), format_rational(v.imag)]

    return {
        "input_set": list(model.input_set.labels),
        "output_set": list(model.output_set.labels),
        "d": model.dimension,
        "pvm": {
            label: [
                [[entry(v) for v in row] for row in model.pvm[i][y]]
                for y in range(model.output_set.size)
            ]
            for i, label in enumerate(model.input_set.labels)
        },
    }


def quantum_model_from_json_dict(data: Mapping) -> QuantumModel:
    if not isinstance(data, Mapping):
        raise ParseError("<root>", "expected a JSON object")
    input_set = parse_labels(data.get("input_set"), "input_set")
    output_set = parse_labels(data.get("output_set"), "output_set")
    d = data.get("d")
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ParseError("d", "expected a positive integer dimension")
    raw = data.get("pvm")
    if not isinstance(raw, Mapping):
        raise ParseError("pvm", "expected an object mapping input labels to families")
    families = []
    for label in input_set.labels:
        if label not in raw:
            raise ParseError(f"pvm[{label!r}]", "missing input label")
        family_raw = raw[label]
        if not isinstance(family_raw, list) or len(family_raw) != output_set.size:
            raise ParseError(
                f"pvm[{label!r}]", f"expected a list of {output_set.size} matrices"
            )
        family = []
        for y, matrix_raw in enumerate(family_raw):
            location = f"pvm[{label!r}][{y}]"
            if not isinstance(matrix_raw, list):
                raise ParseError(location, "expected a list of rows")
            rows = []
            for r, row_raw in enumerate(matrix_raw):
                if not isinstance(row_raw, list):
                    raise ParseError(f"{location}[{r}]", "expected a list of entries")
                row = []
                for c, cell in enumerate(row_raw):
                    if not isinstance(cell, list) or len(cell) != 2:
                        raise ParseError(
                            f"{location}[{r}][{c}]", "expected a [real, imag] pair"
                        )
                    real, imag = (parse_rational(v, f"{location}[{r}][{c}]") for v in cell)
                    row.append(GaussianRational(real, imag))
                rows.append(tuple(row))
            family.append(tuple(rows))
        families.append(tuple(family))
    return QuantumModel(input_set, output_set, d, tuple(families))


# ---------------------------------------------------------------------------
# Blockwise recipes for two-point input or output sets.
# ---------------------------------------------------------------------------


def _diagonal_block(base: FiniteSet, values: Sequence[Fraction]) -> list[list[Fraction]]:
    n = base.size
    block = [[ZERO] * n for _ in range(n)]
    for y in range(n):
        block[y][y] = values[y]
    return block


def _blocks_to_correlation(
    input_set: FiniteSet, output_set: FiniteSet, blocks: Mapping[tuple[int, int], Sequence]
) -> Correlation:
    """Assemble a correlation whose column ``(i, j)`` is ``blocks[i, j]``.

    Each block is an ``|Y| x |Y|`` matrix of Fractions over output pairs,
    one for every input pair.
    """
    pairs = list(output_set.pairs())
    scales, columns = [], []
    for i, j in input_set.pairs():
        block = blocks[i, j]
        d, numerators = common_denominator([block[ya][yb] for ya, yb in pairs])
        scales.append(d)
        columns.append(numerators)
    return Correlation._from_columns(input_set, output_set, scales, columns)


def two_input_nonsignaling(u: PairDistribution, v: PairDistribution) -> Correlation:
    """Synchronous nonsignaling correlation on the two-point input set.

    The off-diagonal input pairs receive the joint distributions ``u`` and
    ``v``; the diagonal pairs receive the diagonal distributions forced by
    nonsignaling.  ``u`` and ``v`` must satisfy, for every output ``y``,

        1. row sum of u at y   == column sum of v at y
        2. column sum of u at y == row sum of v at y

    which is exactly when the result is nonsignaling.  Every synchronous
    nonsignaling correlation with a two-point input set arises this way.
    """
    if u.base_set != v.base_set:
        raise SetMismatchError("u and v must share one output set")
    base = u.base_set
    theta = []
    phi = []
    for y in range(base.size):
        label = base.labels[y]
        if u.row_sum(y) != v.column_sum(y):
            raise MarginalMismatchError(label, 1)
        if u.column_sum(y) != v.row_sum(y):
            raise MarginalMismatchError(label, 2)
        theta.append(u.row_sum(y))
        phi.append(u.column_sum(y))
    blocks = {
        (0, 0): _diagonal_block(base, theta),
        (0, 1): u.matrix,
        (1, 0): v.matrix,
        (1, 1): _diagonal_block(base, phi),
    }
    return _blocks_to_correlation(BINARY, base, blocks)


def two_input_classical(u: PairDistribution) -> Correlation:
    """Classical correlation on the two-point input set from one joint distribution.

    Specializes :func:`two_input_nonsignaling` to ``v`` equal to the
    transpose of ``u``; the marginal conditions then hold automatically and
    the result admits an explicit measure on functions.
    """
    return two_input_nonsignaling(u, u.transpose())


def two_output_nonsignaling(w: PairWeights) -> Correlation:
    """Synchronous nonsignaling correlation with outputs ``{0, 1}``.

    ``w(a, b)`` prescribes the probability that both players answer ``1``
    on inputs ``(a, b)``; the diagonal values prescribe the per-input
    marginals.  Requires at least two inputs, and for every ordered pair
    ``(a, b)``:

        1. w(a, b) <= w(a, a)
        2. w(a, b) <= w(b, b)
        3. w(a, a) + w(b, b) <= 1 + w(a, b)

    Every synchronous nonsignaling correlation with output set of size two
    arises this way.
    """
    base = w.base_set
    if base.size < 2:
        raise DomainTooSmallError("need at least two inputs")
    m = w.matrix
    blocks = {}
    for a in range(base.size):
        for b in range(base.size):
            pair = f"({base.labels[a]}, {base.labels[b]})"
            if m[a][b] > m[a][a]:
                raise ConditionViolatedError(1, f"w{pair} > w({base.labels[a]}, {base.labels[a]})")
            if m[a][b] > m[b][b]:
                raise ConditionViolatedError(2, f"w{pair} > w({base.labels[b]}, {base.labels[b]})")
            if m[a][a] + m[b][b] > ONE + m[a][b]:
                raise ConditionViolatedError(
                    3, f"w(a,a) + w(b,b) = {m[a][a] + m[b][b]} > 1 + w{pair}"
                )
            blocks[(a, b)] = (
                (ONE + m[a][b] - m[a][a] - m[b][b], m[b][b] - m[a][b]),
                (m[a][a] - m[a][b], m[a][b]),
            )
    return _blocks_to_correlation(base, BINARY, blocks)


def two_output_classical(w: PairWeights) -> tuple[ClassicalModel, Correlation]:
    """Classical correlation with outputs ``{0, 1}``, plus its measure.

    ``w`` must be symmetric with, writing ``n = |X|``,

        2. w(j, j) >= sum of w(j, k) over k != j, for every j
        3. sum of w(j, j) over j <= 1 + sum of w(j, k) over j < k

    The measure lives on functions ``X -> {0, 1}`` and reproduces every
    singleton and pairwise weight of ``w`` exactly; it is supported on
    functions sending at most two points to ``1``.
    """
    base = w.base_set
    if not w.is_symmetric():
        raise NotSymmetricError("pairwise weights must be symmetric")
    n = base.size
    m = w.matrix
    for j in range(n):
        off = sum((m[j][k] for k in range(n) if k != j), ZERO)
        if m[j][j] < off:
            raise ConditionViolatedError(
                2, f"w({base.labels[j]}, {base.labels[j]}) = {m[j][j]} < row sum {off}"
            )
    diag_total = sum((m[j][j] for j in range(n)), ZERO)
    upper_total = sum((m[j][k] for j in range(n) for k in range(j + 1, n)), ZERO)
    if diag_total > ONE + upper_total:
        raise ConditionViolatedError(3, f"{diag_total} > 1 + {upper_total}")
    reconstruction = intersections_to_atoms(pairwise_intersection_vector(w))
    if not reconstruction.feasible:
        raise AssertionError("reconstruction must be feasible under the hypotheses")
    # Atom j is the function sending x_k to bit k of j.  The atoms are
    # nonnegative and sum to the denominator, because w_0 = 1.
    functions, numerators = zip(*sorted(
        (tuple((j >> k) & 1 for k in range(n)), mass)
        for j, mass in enumerate(reconstruction.numerators)
        if mass
    ))
    model = ClassicalModel._from_integers(
        base, BINARY, functions, numerators, reconstruction.denominator
    )
    return model, from_classical_model(model)


# ---------------------------------------------------------------------------
# Seeded random generators.
# ---------------------------------------------------------------------------

RANDOM_KINDS = ("synchronous", "classical", "two_input_ns", "two_output_ns", "deterministic_pair")

_PYTHAGOREAN_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))


def _random_weights(count: int, rng: random.Random, granularity: int = 8) -> list[Fraction]:
    raw = [rng.randrange(granularity + 1) for _ in range(count)]
    if not any(raw):
        raw[rng.randrange(count)] = 1
    total = sum(raw)
    return [Fraction(value, total) for value in raw]


def random_classical_model(
    input_set: FiniteSet, output_set: FiniteSet, seed: int
) -> ClassicalModel:
    """A seeded random measure on all of Hom(X, Y); deterministic in ``seed``."""
    rng = random.Random(seed)
    functions = list(enumerate_functions(input_set.size, output_set.size))
    weights = _random_weights(len(functions), rng)
    return classical_model(input_set, output_set, dict(zip(functions, weights)))


def _random_synchronous(
    input_set: FiniteSet, output_set: FiniteSet, rng: random.Random
) -> Correlation:
    ny = output_set.size
    rows = output_set.pair_count
    cols = input_set.pair_count
    matrix = [[ZERO] * cols for _ in range(rows)]
    for i, j in input_set.pairs():
        c = input_set.pair_index(i, j)
        if i == j:
            for y, value in enumerate(_random_weights(ny, rng)):
                matrix[output_set.pair_index(y, y)][c] = value
        else:
            for r, value in enumerate(_random_weights(rows, rng)):
                matrix[r][c] = value
    return make_correlation(input_set, output_set, matrix)


def _random_transport(
    row_margins: Sequence[Fraction], col_margins: Sequence[Fraction], rng: random.Random
) -> list[list[Fraction]]:
    """A random nonnegative matrix with the given row and column sums."""
    n = len(row_margins)
    result = [[ZERO] * n for _ in range(n)]
    rows = list(range(n))
    cols = list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    remaining_rows = list(row_margins)
    remaining_cols = list(col_margins)
    for i in rows:
        for j in cols:
            move = min(remaining_rows[i], remaining_cols[j])
            if move > 0:
                result[i][j] += move
                remaining_rows[i] -= move
                remaining_cols[j] -= move
    return result


def _random_pair_distribution(base: FiniteSet, rng: random.Random) -> PairDistribution:
    n = base.size
    flat = _random_weights(n * n, rng)
    return PairDistribution(
        base, tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))
    )


def _relabel(p: Correlation, input_set: FiniteSet, output_set: FiniteSet) -> Correlation:
    if input_set.size != p.input_set.size or output_set.size != p.output_set.size:
        raise ShapeMismatchError("relabeling must preserve set sizes")
    return Correlation._from_columns(input_set, output_set, p.lcms, p.columns)


def _random_two_input_ns(
    input_set: FiniteSet, output_set: FiniteSet, rng: random.Random
) -> Correlation:
    if input_set.size != 2:
        raise UnsupportedShapeError("this recipe needs an input set of exactly two labels")
    u = _random_pair_distribution(output_set, rng)
    n = output_set.size
    row_margins = [u.column_sum(j) for j in range(n)]
    col_margins = [u.row_sum(i) for i in range(n)]
    first = _random_transport(row_margins, col_margins, rng)
    second = _random_transport(row_margins, col_margins, rng)
    half = Fraction(1, 2)
    v = PairDistribution(
        output_set,
        tuple(
            tuple(half * (first[i][j] + second[i][j]) for j in range(n)) for i in range(n)
        ),
    )
    return _relabel(two_input_nonsignaling(u, v), input_set, output_set)


def _random_two_output_ns(
    input_set: FiniteSet, output_set: FiniteSet, rng: random.Random
) -> Correlation:
    if output_set.size != 2:
        raise UnsupportedShapeError("this recipe needs an output set of exactly two labels")
    if input_set.size < 2:
        raise DomainTooSmallError("need at least two inputs")
    n = input_set.size
    diag = [Fraction(rng.randrange(13), 12) for _ in range(n)]
    matrix = [[ZERO] * n for _ in range(n)]
    for a in range(n):
        matrix[a][a] = diag[a]
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            low = diag[a] + diag[b] - ONE
            if low < ZERO:
                low = ZERO
            high = min(diag[a], diag[b])
            matrix[a][b] = low + (high - low) * Fraction(rng.randrange(7), 6)
    w = PairWeights(input_set, tuple(tuple(row) for row in matrix))
    return _relabel(two_output_nonsignaling(w), input_set, output_set)


def _random_deterministic_pair(
    input_set: FiniteSet, output_set: FiniteSet, rng: random.Random
) -> Correlation:
    n = input_set.size
    ny = output_set.size
    f_a = [[rng.randrange(ny) for _ in range(n)] for _ in range(n)]
    f_b = [[rng.randrange(ny) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        f_b[i][i] = f_a[i][i]
    pair = DeterministicPair(
        input_set,
        output_set,
        tuple(tuple(row) for row in f_a),
        tuple(tuple(row) for row in f_b),
    )
    return from_deterministic_pair(pair)


def random_correlation(
    kind: str, input_set: FiniteSet, output_set: FiniteSet, seed: int
) -> Correlation:
    """A seeded random correlation of a guaranteed class.

    ``kind`` selects the recipe: ``synchronous`` (arbitrary synchronous),
    ``classical`` (mixture of functions), ``two_input_ns`` (synchronous
    nonsignaling, two-point input set), ``two_output_ns`` (synchronous
    nonsignaling, two-point output set, possibly asymmetric) or
    ``deterministic_pair`` (synchronous pair of answer tables).  The result
    is deterministic in ``seed``.
    """
    rng = random.Random(seed)
    if kind == "synchronous":
        return _random_synchronous(input_set, output_set, rng)
    if kind == "classical":
        return from_classical_model(random_classical_model(input_set, output_set, seed))
    if kind == "two_input_ns":
        return _random_two_input_ns(input_set, output_set, rng)
    if kind == "two_output_ns":
        return _random_two_output_ns(input_set, output_set, rng)
    if kind == "deterministic_pair":
        return _random_deterministic_pair(input_set, output_set, rng)
    raise ValueError(f"unknown kind {kind!r}; expected one of {RANDOM_KINDS}")


def _unitary_parts(dimension: int, rng: random.Random) -> tuple[int, list, list]:
    """``(den, re, im)``: the rows of an exact random unitary ``(re + i im) / den``.

    Starting from the identity, each of ``dimension ** 2`` steps multiplies
    every row by a random fourth root of unity, then rotates two random rows
    by the angle of a Pythagorean triple ``(a, b, c)``: rows ``i < j`` become
    ``a u_i - b u_j`` and ``b u_i + a u_j``, every other row is multiplied by
    ``c``, and so is ``den``.
    """
    re = [[int(r == c) for c in range(dimension)] for r in range(dimension)]
    im = [[0] * dimension for _ in range(dimension)]
    den = 1
    for _ in range(dimension * dimension):
        for r in range(dimension):
            k = rng.randrange(4)
            if k == 1:
                re[r], im[r] = [-v for v in im[r]], re[r]
            elif k == 2:
                re[r], im[r] = [-v for v in re[r]], [-v for v in im[r]]
            elif k == 3:
                re[r], im[r] = im[r], [-v for v in re[r]]
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
        for rows in (re, im):
            row_i, row_j = rows[i], rows[j]
            for r in range(dimension):
                rows[r] = [c * v for v in rows[r]]
            rows[i] = [a * x - b * y for x, y in zip(row_i, row_j)]
            rows[j] = [b * x + a * y for x, y in zip(row_i, row_j)]
        den *= c
    return den, re, im


def random_quantum_model(
    input_set: FiniteSet, output_set: FiniteSet, dimension: int, seed: int
) -> QuantumModel:
    """A seeded random projective strategy with exact Gaussian rational entries.

    Each input gets a random exact unitary ``u`` and a random partition of
    the basis into output groups; the projection of an output is the sum of
    ``u[:, l] u[:, l]^*`` over the columns ``l`` of its group, computed on
    the integer parts of ``u`` over ``den ** 2``.  When ``dimension`` is at
    least ``|Y|`` every output receives a nonzero projection.
    """
    rng = random.Random(seed)
    ny = output_set.size
    indices = range(dimension)
    families = []
    for _ in range(input_set.size):
        assignment = [l % ny for l in indices]
        rng.shuffle(assignment)
        den, re, im = _unitary_parts(dimension, rng)
        scale = den * den

        def entry(value: int) -> Fraction:
            return Fraction(value, scale) if value else ZERO

        family = []
        for y in range(ny):
            group = [l for l in indices if assignment[l] == y]
            family.append(
                tuple(
                    tuple(
                        GaussianRational(
                            entry(sum(re[r][l] * re[s][l] + im[r][l] * im[s][l] for l in group)),
                            entry(sum(im[r][l] * re[s][l] - re[r][l] * im[s][l] for l in group)),
                        )
                        for s in indices
                    )
                    for r in indices
                )
            )
        families.append(tuple(family))
    return QuantumModel(input_set, output_set, dimension, tuple(families))
