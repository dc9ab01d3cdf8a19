import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgames import (
    ClassicalModel,
    DeterministicPair,
    GaussianRational,
    QuantumModel,
    RANDOM_KINDS,
    classical_model,
    classical_model_from_json_dict,
    classical_model_to_json_dict,
    classical_decomposition,
    enumerate_functions,
    finite_set,
    from_classical_model,
    from_deterministic_pair,
    from_function,
    from_function_indices,
    from_quantum_model,
    gaussian,
    identity,
    is_deterministic,
    is_nonsignaling,
    is_symmetric,
    is_synchronous,
    pair_distribution,
    pair_weights,
    quantum_model_from_json_dict,
    quantum_model_to_json_dict,
    random_classical_model,
    random_correlation,
    random_quantum_model,
    two_input_classical,
    two_input_nonsignaling,
    two_output_classical,
    two_output_nonsignaling,
    validate_quantum_model,
)

from quantum_oracle import (
    compose_quantum_models,
    evaluate_quantum_model,
    g_add,
    g_conjugate,
    g_is_zero,
    g_mul,
    g_neg,
    g_sub,
    gr_conj_transpose,
    gr_identity,
    gr_kron,
    gr_matrix,
    gr_mul,
    gr_trace_product,
    random_unitary,
    reference_random_quantum_model,
    validate_projections,
)
from syncgames.corrcore import ZERO
from syncgames.errors import (
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

S1 = finite_set(["0"])
B = finite_set(["0", "1"])
T = finite_set(["0", "1", "2"])


def test_enumerate_functions_lex_order():
    functions = list(enumerate_functions(2, 2))
    assert functions == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(list(enumerate_functions(3, 2))) == 8
    assert list(enumerate_functions(0, 3)) == [()]


def test_from_function_identity():
    assert from_function(B, B, {"0": "0", "1": "1"}) == identity(B)


def test_from_function_constant():
    p = from_function(B, B, {"0": "0", "1": "0"})
    for xa in "01":
        for xb in "01":
            assert p.entry("0", "0", xa, xb) == 1


def test_from_function_negation_entry():
    p = from_function(B, B, {"0": "1", "1": "0"})
    assert p.entry("1", "0", "0", "1") == 1
    assert p.entry("0", "0", "0", "1") == 0


def test_from_function_unknown_labels():
    with pytest.raises(UnknownLabelError):
        from_function(B, B, {"0": "0", "bogus": "1"})
    with pytest.raises(UnknownLabelError):
        from_function(B, B, {"0": "0"})


def test_from_function_indices_shape():
    with pytest.raises(ShapeMismatchError):
        from_function_indices(B, B, (0,))
    with pytest.raises(ShapeMismatchError):
        from_function_indices(B, B, (0, 2))


def test_deterministic_pair_reduces_to_function():
    # both answer tables ignore the partner input
    pair = DeterministicPair(B, B, ((1, 1), (0, 0)), ((1, 0), (1, 0)))
    assert from_deterministic_pair(pair) == from_function(B, B, {"0": "1", "1": "0"})


def test_deterministic_pair_can_signal():
    y4 = finite_set(["0", "1", "2", "3"])
    pair = DeterministicPair(B, y4, ((0, 2), (3, 1)), ((0, 3), (2, 1)))
    p = from_deterministic_pair(pair)
    assert is_synchronous(p)
    assert not is_nonsignaling(p)
    # Alice's marginal of answering 2 depends on Bob's input
    assert p.entry("2", "3", "0", "1") == 1
    assert p.entry("2", "2", "0", "0") == 0


def test_deterministic_pair_can_break_synchronicity():
    pair = DeterministicPair(B, B, ((0, 0), (0, 0)), ((1, 0), (0, 0)))
    assert not is_synchronous(from_deterministic_pair(pair))


def test_classical_model_canonicalization():
    model = classical_model(B, B, {(1, 0): F(1, 2), (0, 0): F(1, 2), (1, 1): F(0)})
    assert model.weights == (((0, 0), F(1, 2)), ((1, 0), F(1, 2)))
    assert model.support() == ((0, 0), (1, 0))
    assert model.mu == {(0, 0): F(1, 2), (1, 0): F(1, 2)}


def test_classical_model_validation():
    with pytest.raises(WeightsNotNormalizedError):
        classical_model(B, B, {(0, 0): F(1, 2)})
    with pytest.raises(WeightsNotNormalizedError):
        classical_model(B, B, {(0, 0): F(3, 2), (1, 1): F(-1, 2)})
    with pytest.raises(ShapeMismatchError):
        classical_model(B, B, {(0, 0, 0): F(1)})
    with pytest.raises(ShapeMismatchError):
        classical_model(B, B, {(0, 2): F(1)})
    with pytest.raises(ShapeMismatchError):
        classical_model(B, B, {(True, False): F(1)})
    with pytest.raises(WeightsNotNormalizedError):
        ClassicalModel(B, B, (((0, 0), F(1, 2)), ((0, 0), F(1, 2))))


def test_classical_model_errors_keep_their_order_and_messages():
    # Every pair is checked in turn before the total; the total is exact.
    with pytest.raises(WeightsNotNormalizedError, match="weight of \\(1, 1\\) is negative: -1/2"):
        ClassicalModel(B, B, (((0, 0), F(1, 2)), ((1, 1), F(-1, 2)), ((0, 1), 5)))
    with pytest.raises(ShapeMismatchError):
        ClassicalModel(B, B, (((0, 0), F(1, 2)), ((0, 2), 1), ((0, 0), F(1, 2))))
    with pytest.raises(WeightsNotNormalizedError, match="duplicate function key"):
        ClassicalModel(B, B, (((0, 0), F(3)), ((0, 0), F(-1)), ((0, 2), 1)))
    with pytest.raises(WeightsNotNormalizedError, match="^weights sum to 5/6, expected 1$"):
        ClassicalModel(B, B, (((0, 0), F(1, 2)), ((1, 1), F(1, 3)), ((0, 1), 0)))
    with pytest.raises(WeightsNotNormalizedError, match="^weights sum to 0, expected 1$"):
        ClassicalModel(B, B, (((0, 0), 0),))
    with pytest.raises(WeightsNotNormalizedError, match="^weights sum to 0, expected 1$"):
        ClassicalModel(B, B, ())
    assert ClassicalModel(B, B, (((1, 0), "1/3"), ((0, 1), F(2, 3)), ((0, 0), 0))).weights == (
        ((0, 1), F(2, 3)),
        ((1, 0), F(1, 3)),
    )


def _labels(n):
    return finite_set([str(i) for i in range(n)])


def test_classical_models_are_canonical_whatever_the_pairs():
    pairs = [((1, 0), "2/4"), ((0, 0), F(1, 4)), ((1, 1), 0), ((0, 1), F(1, 4))]
    first = ClassicalModel(B, B, pairs)
    second = ClassicalModel(B, B, reversed([(k, F(w)) for k, w in pairs]))
    third = classical_model(B, B, {(0, 1): "1/4", (1, 0): F(1, 2), (0, 0): "3/12"})
    assert first == second == third
    assert hash(first) == hash(second) == hash(third)
    assert first.functions == ((0, 0), (0, 1), (1, 0))
    assert (first.numerators, first.denominator) == ((1, 1, 2), 4)
    assert classical_model(B, B, {(0, 0): F(1, 3), (1, 1): F(2, 3)}) != classical_model(
        B, B, {(0, 0): F(2, 3), (1, 1): F(1, 3)}
    )


def test_classical_model_views_equal_the_canonical_fractions():
    # The canonical form of every earlier version: the nonzero (function,
    # Fraction) pairs sorted by function.
    rng = random.Random(5)
    for _ in range(60):
        nx, ny = rng.randint(1, 3), rng.randint(1, 3)
        functions = rng.sample(list(enumerate_functions(nx, ny)), rng.randint(1, ny**nx))
        raw = [rng.choice((0, 1, 2, 7, 30)) for _ in functions]
        raw[0] = raw[0] or 1
        pairs = [(f, F(k, sum(raw))) for f, k in zip(functions, raw)]
        model = ClassicalModel(_labels(nx), _labels(ny), pairs)
        expected = tuple(sorted((f, w) for f, w in pairs if w != 0))
        assert model.weights == expected
        assert model.mu == dict(expected)
        assert model.support() == tuple(f for f, _ in expected)
        assert all(type(w) is F for _, w in model.weights)
        assert math.gcd(model.denominator, *model.numerators) == 1


def test_classical_model_json_text_round_trips():
    for seed in range(20):
        model = random_classical_model(_labels(3), T, seed)
        text = json.dumps(classical_model_to_json_dict(model), sort_keys=True)
        again = classical_model_from_json_dict(json.loads(text))
        assert again == model
        assert json.dumps(classical_model_to_json_dict(again), sort_keys=True) == text


def test_from_classical_model_point_mass():
    model = classical_model(B, B, {(1, 0): F(1)})
    assert from_classical_model(model) == from_function(B, B, {"0": "1", "1": "0"})


def test_from_classical_model_two_constants():
    model = classical_model(B, B, {(0, 0): F(1, 2), (1, 1): F(1, 2)})
    p = from_classical_model(model)
    for xa in "01":
        for xb in "01":
            for ya in "01":
                for yb in "01":
                    expected = F(1, 2) if ya == yb else F(0)
                    assert p.entry(ya, yb, xa, xb) == expected


def test_from_classical_model_uniform():
    mu = {f: F(1, 4) for f in enumerate_functions(2, 2)}
    p = from_classical_model(classical_model(B, B, mu))
    for ya in "01":
        for yb in "01":
            assert p.entry(ya, yb, "0", "1") == F(1, 4)
    assert p.entry("0", "0", "0", "0") == F(1, 2)
    assert p.entry("1", "1", "0", "0") == F(1, 2)
    assert p.entry("0", "1", "0", "0") == F(0)


def test_classical_model_json_roundtrip():
    model = classical_model(B, T, {(0, 2): F(1, 3), (1, 1): F(2, 3)})
    data = classical_model_to_json_dict(model)
    assert data["mu"] == {"(0,2)": "1/3", "(1,1)": "2/3"}
    assert classical_model_from_json_dict(data) == model


def test_classical_model_json_errors():
    with pytest.raises(ParseError):
        classical_model_from_json_dict([])
    with pytest.raises(ParseError):
        classical_model_from_json_dict(
            {"input_set": ["0"], "output_set": ["0"], "mu": {"0": "1"}}
        )
    with pytest.raises(ParseError):
        classical_model_from_json_dict(
            {"input_set": ["0"], "output_set": ["0"], "mu": {"(0)": "1/0"}}
        )


def test_classical_model_json_rejects_keys_that_parse_alike():
    data = {
        "input_set": ["0", "1"],
        "output_set": ["0", "1"],
        "mu": {"(0,1)": "1/2", "( 0, 1 )": "1/2"},
    }
    with pytest.raises(ParseError, match="duplicate function key"):
        classical_model_from_json_dict(data)


def test_gaussian_rational_arithmetic():
    a = gaussian(F(1, 2), F(1, 3))
    b = gaussian(F(1, 4), F(-1, 3))
    assert g_add(a, b) == gaussian(F(3, 4), 0)
    assert g_sub(a, b) == gaussian(F(1, 4), F(2, 3))
    # (1/2 + i/3)(1/4 - i/3) = 1/8 + 1/9 + i(1/12 - 1/6)
    assert g_mul(a, b) == gaussian(F(1, 8) + F(1, 9), F(1, 12) - F(1, 6))
    assert g_neg(a) == gaussian(F(-1, 2), F(-1, 3))
    assert g_conjugate(a) == gaussian(F(1, 2), F(-1, 3))
    assert not g_is_zero(a)
    assert g_is_zero(gaussian(0))


def test_gr_matrix_helpers():
    i = gaussian(0, 1)
    one = gaussian(1)
    zero = gaussian(0)
    m = gr_matrix([[zero, i], [g_neg(i), zero]])
    assert gr_conj_transpose(m) == m
    assert gr_mul(m, m) == gr_identity(2)
    assert gr_trace_product(m, m) == gaussian(2)
    k = gr_kron(gr_identity(2), m)
    assert len(k) == 4 and len(k[0]) == 4
    assert k[0][1] == i and k[2][3] == i and k[0][3] == zero
    assert gr_trace_product(k, k) == gaussian(4)
    assert gr_mul(k, k) == gr_identity(4)
    assert gr_conj_transpose(gr_matrix([[one, i], [zero, one]])) == gr_matrix(
        [[one, zero], [g_neg(i), one]]
    )


DIAG_PVM = (
    gr_matrix([[gaussian(1), gaussian(0)], [gaussian(0), gaussian(0)]]),
    gr_matrix([[gaussian(0), gaussian(0)], [gaussian(0), gaussian(1)]]),
)
HALF = gaussian(F(1, 2))
NEG_HALF = gaussian(F(-1, 2))
CONJUGATED_PVM = (
    gr_matrix([[HALF, HALF], [HALF, HALF]]),
    gr_matrix([[HALF, NEG_HALF], [NEG_HALF, HALF]]),
)


def test_quantum_model_shape_checks():
    with pytest.raises(ShapeMismatchError):
        QuantumModel(B, B, 0, (DIAG_PVM, DIAG_PVM))
    with pytest.raises(ShapeMismatchError):
        QuantumModel(B, B, 2, (DIAG_PVM,))
    with pytest.raises(ShapeMismatchError):
        QuantumModel(B, B, 2, ((DIAG_PVM[0],), DIAG_PVM))
    with pytest.raises(ShapeMismatchError):
        QuantumModel(B, B, 3, (DIAG_PVM, DIAG_PVM))


def test_quantum_validation_order():
    hermitian_fail = (
        gr_matrix([[gaussian(1), gaussian(1)], [gaussian(0), gaussian(0)]]),
        gr_matrix([[gaussian(0), gaussian(0)], [gaussian(0), gaussian(1)]]),
    )
    with pytest.raises(NotHermitianError) as info:
        validate_quantum_model(QuantumModel(B, B, 2, (DIAG_PVM, hermitian_fail)))
    assert info.value.input_label == "1"
    assert info.value.output_label == "0"

    not_idempotent = (
        gr_matrix([[HALF, gaussian(0)], [gaussian(0), HALF]]),
        gr_matrix([[HALF, gaussian(0)], [gaussian(0), HALF]]),
    )
    with pytest.raises(NotIdempotentError) as info:
        validate_quantum_model(QuantumModel(B, B, 2, (not_idempotent, DIAG_PVM)))
    assert info.value.input_label == "0"

    incomplete = (CONJUGATED_PVM[0], DIAG_PVM[0])
    with pytest.raises(NotCompleteError) as info:
        validate_quantum_model(QuantumModel(B, B, 2, (incomplete, DIAG_PVM)))
    assert info.value.input_label == "0"

    # real parts sum to the identity, imaginary parts do not cancel
    half_i = gaussian(0, F(1, 2))
    twisted = gr_matrix([[HALF, half_i], [g_neg(half_i), HALF]])
    with pytest.raises(NotCompleteError) as info:
        validate_quantum_model(QuantumModel(B, B, 2, (DIAG_PVM, (twisted, twisted))))
    assert info.value.input_label == "1"


def test_quantum_conjugated_basis_example():
    model = QuantumModel(B, B, 2, (DIAG_PVM, CONJUGATED_PVM))
    p = from_quantum_model(model)
    for ya in "01":
        for yb in "01":
            assert p.entry(ya, yb, "0", "1") == F(1, 4)
            assert p.entry(ya, yb, "1", "0") == F(1, 4)
    assert p.entry("0", "0", "0", "0") == F(1, 2)
    assert p.entry("1", "1", "0", "0") == F(1, 2)
    assert p.entry("0", "1", "0", "0") == F(0)
    assert is_synchronous(p) and is_symmetric(p) and is_nonsignaling(p)


def test_quantum_common_pvm_is_classical():
    model = QuantumModel(B, B, 2, (DIAG_PVM, DIAG_PVM))
    p = from_quantum_model(model)
    mixture = from_classical_model(
        classical_model(B, B, {(0, 0): F(1, 2), (1, 1): F(1, 2)})
    )
    assert p == mixture
    assert classical_decomposition(p) is not None


def test_quantum_model_json_roundtrip():
    model = QuantumModel(B, B, 2, (DIAG_PVM, CONJUGATED_PVM))
    data = quantum_model_to_json_dict(model)
    assert data["d"] == 2
    assert data["pvm"]["1"][0][0][1] == ["1/2", "0"]
    back = quantum_model_from_json_dict(data)
    assert back == model
    assert from_quantum_model(back) == from_quantum_model(model)


def test_quantum_model_json_errors():
    good = quantum_model_to_json_dict(QuantumModel(B, B, 2, (DIAG_PVM, DIAG_PVM)))
    bad_d = dict(good, d=0)
    with pytest.raises(ParseError):
        quantum_model_from_json_dict(bad_d)
    bad_cell = {
        "input_set": ["0"],
        "output_set": ["0"],
        "d": 1,
        "pvm": {"0": [[["1"]]]},
    }
    with pytest.raises(ParseError):
        quantum_model_from_json_dict(bad_cell)
    with pytest.raises(ParseError):
        quantum_model_from_json_dict(dict(good, pvm={"0": good["pvm"]["0"]}))


def test_quantum_model_json_rejects_boolean_dimension():
    data = {"input_set": ["0"], "output_set": ["0"], "d": True, "pvm": {"0": [[[["1", "0"]]]]}}
    assert quantum_model_from_json_dict(dict(data, d=1)).dimension == 1
    with pytest.raises(ParseError, match="d:"):
        quantum_model_from_json_dict(data)


def test_two_input_nonsignaling_uniform():
    u = pair_distribution(B, [["1/4", "1/4"], ["1/4", "1/4"]])
    p = two_input_nonsignaling(u, u)
    assert p.entry("0", "0", "0", "0") == F(1, 2)
    assert p.entry("1", "1", "0", "0") == F(1, 2)
    assert p.entry("0", "1", "0", "0") == F(0)
    for ya in "01":
        for yb in "01":
            assert p.entry(ya, yb, "0", "1") == F(1, 4)
    assert is_synchronous(p) and is_nonsignaling(p)


def test_two_input_nonsignaling_point_masses():
    # u concentrated at (0,1) with v at (1,0) satisfies both marginal
    # conditions and reproduces the identity strategy
    u = pair_distribution(B, [["0", "1"], ["0", "0"]])
    v = pair_distribution(B, [["0", "0"], ["1", "0"]])
    p = two_input_nonsignaling(u, v)
    assert p.entry("0", "0", "0", "0") == 1  # diag theta = (1, 0)
    assert p.entry("1", "1", "1", "1") == 1  # diag phi = (0, 1)
    assert p.entry("0", "1", "0", "1") == 1
    assert p.entry("1", "0", "1", "0") == 1
    assert p == identity(B)


def test_two_input_nonsignaling_marginal_mismatch():
    u = pair_distribution(B, [["0", "1"], ["0", "0"]])
    with pytest.raises(MarginalMismatchError) as info:
        two_input_nonsignaling(u, u)
    assert info.value.label == "0"
    assert info.value.condition in (1, 2)


def test_two_input_nonsignaling_set_mismatch():
    u = pair_distribution(B, [["1/4", "1/4"], ["1/4", "1/4"]])
    w = pair_distribution(
        T,
        [
            ["1/9", "1/9", "1/9"],
            ["1/9", "1/9", "1/9"],
            ["1/9", "1/9", "1/9"],
        ],
    )
    with pytest.raises(SetMismatchError):
        two_input_nonsignaling(u, w)


CYCLIC = pair_distribution(
    T,
    [["0", "1/3", "0"], ["0", "0", "1/3"], ["1/3", "0", "0"]],
)


def test_two_input_nonsignaling_cyclic_is_asymmetric():
    p = two_input_nonsignaling(CYCLIC, CYCLIC)
    assert is_synchronous(p)
    assert is_nonsignaling(p)
    assert not is_symmetric(p)
    assert classical_decomposition(p) is None


def test_two_input_classical_diagonal():
    u = pair_distribution(B, [["1/2", "0"], ["0", "1/2"]])
    p = two_input_classical(u)
    for xa in "01":
        for xb in "01":
            assert p.entry("0", "0", xa, xb) == F(1, 2)
            assert p.entry("1", "1", xa, xb) == F(1, 2)
            assert p.entry("0", "1", xa, xb) == F(0)


def test_two_input_classical_point_mass():
    u = pair_distribution(B, [["1", "0"], ["0", "0"]])
    assert two_input_classical(u) == from_function(B, B, {"0": "0", "1": "0"})


def test_two_input_classical_uniform_decomposes():
    u = pair_distribution(B, [["1/4", "1/4"], ["1/4", "1/4"]])
    p = two_input_classical(u)
    assert p.entry("0", "1", "0", "1") == F(1, 4)
    assert p.entry("0", "0", "0", "0") == F(1, 2)
    model = classical_decomposition(p)
    assert model is not None
    assert from_classical_model(model) == p


def test_two_output_nonsignaling_column_formulas():
    w = pair_weights(B, [["1/2", "1/4"], ["1/4", "1/2"]])
    p = two_output_nonsignaling(w)
    for ya in "01":
        for yb in "01":
            assert p.entry(ya, yb, "0", "1") == F(1, 4)
    # diagonal input column: p(1,1|a,a) = w(a,a)
    assert p.entry("1", "1", "0", "0") == F(1, 2)
    assert p.entry("0", "0", "0", "0") == F(1, 2)
    assert p.entry("0", "1", "0", "0") == F(0)
    assert is_synchronous(p) and is_nonsignaling(p)


def test_two_output_nonsignaling_zero_weights():
    w = pair_weights(B, [["0", "0"], ["0", "0"]])
    assert two_output_nonsignaling(w) == from_function(B, B, {"0": "0", "1": "0"})


def test_two_output_nonsignaling_condition_three():
    w = pair_weights(B, [["1", "0"], ["0", "1"]])
    with pytest.raises(ConditionViolatedError) as info:
        two_output_nonsignaling(w)
    assert info.value.condition == 3


def test_two_output_nonsignaling_conditions_one_two():
    with pytest.raises(ConditionViolatedError) as info:
        two_output_nonsignaling(pair_weights(B, [["1/4", "1/2"], ["1/2", "3/4"]]))
    assert info.value.condition == 1
    with pytest.raises(ConditionViolatedError) as info:
        two_output_nonsignaling(pair_weights(B, [["3/4", "1/2"], ["1/2", "1/4"]]))
    assert info.value.condition in (1, 2)


def test_two_output_nonsignaling_needs_two_inputs():
    with pytest.raises(DomainTooSmallError):
        two_output_nonsignaling(pair_weights(finite_set(["0"]), [["1/2"]]))


def test_two_output_nonsignaling_asymmetric_weights_allowed():
    w = pair_weights(B, [["1/2", "1/4"], ["0", "1/2"]])
    p = two_output_nonsignaling(w)
    assert is_synchronous(p) and is_nonsignaling(p)
    assert not is_symmetric(p)


def test_two_output_classical_uniform_atoms():
    w = pair_weights(B, [["1/2", "1/4"], ["1/4", "1/2"]])
    model, q = two_output_classical(w)
    assert model.mu == {f: F(1, 4) for f in enumerate_functions(2, 2)}
    assert q.entry("1", "1", "0", "1") == F(1, 4)
    assert from_classical_model(model) == q
    assert q == two_output_nonsignaling(w)


def test_two_output_classical_zero_weights():
    w = pair_weights(B, [["0", "0"], ["0", "0"]])
    model, q = two_output_classical(w)
    assert model.mu == {(0, 0): F(1)}
    assert q == from_function(B, B, {"0": "0", "1": "0"})


def test_two_output_classical_condition_three():
    w = pair_weights(B, [["3/4", "1/4"], ["1/4", "3/4"]])
    with pytest.raises(ConditionViolatedError) as info:
        two_output_classical(w)
    assert info.value.condition == 3


def test_two_output_classical_condition_two():
    w = pair_weights(B, [["1/4", "1/2"], ["1/2", "3/4"]])
    with pytest.raises(ConditionViolatedError) as info:
        two_output_classical(w)
    assert info.value.condition == 2


def test_two_output_classical_requires_symmetry():
    with pytest.raises(NotSymmetricError):
        two_output_classical(pair_weights(B, [["1/2", "1/4"], ["0", "1/2"]]))


def test_two_output_classical_reproduces_pairwise_weights():
    x3 = finite_set(["a", "b", "c"])
    w = pair_weights(
        x3,
        [["1/2", "1/8", "1/4"], ["1/8", "1/4", "1/8"], ["1/4", "1/8", "1/2"]],
    )
    model, q = two_output_classical(w)
    n = 3
    for j in range(n):
        for k in range(n):
            total = sum(
                (weight for f, weight in model.weights if f[j] == 1 and f[k] == 1),
                F(0),
            )
            assert total == w.matrix[j][k]
    assert all(sum(f) <= 2 for f in model.support())
    assert classical_decomposition(q) is not None


def test_random_determinism_and_membership():
    for kind in RANDOM_KINDS:
        if kind == "two_input_ns":
            inputs, outputs = B, T
        elif kind == "two_output_ns":
            inputs, outputs = T, B
        else:
            inputs, outputs = T, B
        first = random_correlation(kind, inputs, outputs, 11)
        second = random_correlation(kind, inputs, outputs, 11)
        assert first == second
        other = random_correlation(kind, inputs, outputs, 12)
        assert is_synchronous(other)


def test_random_classical_decomposes():
    for seed in range(4):
        p = random_correlation("classical", B, T, seed)
        assert classical_decomposition(p) is not None


def test_random_ns_kinds_are_nonsignaling():
    for seed in range(4):
        p = random_correlation("two_input_ns", B, T, seed)
        assert is_synchronous(p) and is_nonsignaling(p)
        q = random_correlation("two_output_ns", T, B, seed)
        assert is_synchronous(q) and is_nonsignaling(q)


def test_random_deterministic_pair_kind():
    p = random_correlation("deterministic_pair", T, B, 3)
    assert is_synchronous(p)
    assert is_deterministic(p) is not None


def test_random_kind_shape_errors():
    with pytest.raises(UnsupportedShapeError):
        random_correlation("two_input_ns", T, B, 0)
    with pytest.raises(UnsupportedShapeError):
        random_correlation("two_output_ns", B, T, 0)
    with pytest.raises(ValueError):
        random_correlation("bogus", B, B, 0)


def test_random_classical_model_determinism():
    a = random_classical_model(B, T, 5)
    b = random_classical_model(B, T, 5)
    assert a == b
    assert sum(w for _, w in a.weights) == 1


def test_random_unitary_is_exactly_unitary():
    for d in (1, 2, 3):
        u = random_unitary(d, random.Random(9))
        assert gr_mul(u, gr_conj_transpose(u)) == gr_identity(d)
        assert gr_mul(gr_conj_transpose(u), u) == gr_identity(d)


def test_random_quantum_model_equals_the_matrix_product_generator():
    # every shape kind: d = 1, d < |Y|, d = |Y| and d > |Y|, one or more inputs
    shapes = ((S1, B, 1), (B, B, 1), (B, T, 2), (T, B, 2), (B, B, 3), (T, T, 3), (S1, T, 4))
    for x, y, d in shapes:
        for seed in range(5):
            model = random_quantum_model(x, y, d, seed)
            assert model == reference_random_quantum_model(x, y, d, seed)
            entries = [v for family in model.pvm for m in family for row in m for v in row]
            assert all(part is ZERO for v in entries for part in (v.real, v.imag) if part == 0)


def test_random_quantum_model_validates_and_evaluates():
    for d, seed in ((2, 0), (3, 4)):
        model = random_quantum_model(B, B, d, seed)
        validate_quantum_model(model)
        p = from_quantum_model(model)
        assert is_synchronous(p) and is_symmetric(p) and is_nonsignaling(p)
        again = random_quantum_model(B, B, d, seed)
        assert from_quantum_model(again) == p


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([(B, B), (B, T), (T, B), (T, T)]),
    st.integers(2, 4),
    st.integers(0, 2**31 - 1),
)
def test_integer_quantum_evaluation_equals_the_trace_oracle(sets, d, seed):
    model = random_quantum_model(*sets, d, seed)
    p = from_quantum_model(model)
    assert p == evaluate_quantum_model(model)
    assert all(v is ZERO for row in p.matrix for v in row if v == 0)


def _replace_projection(model, x, y, matrix):
    pvm = [list(family) for family in model.pvm]
    pvm[x][y] = gr_matrix(matrix)
    return QuantumModel(
        model.input_set, model.output_set, model.dimension, tuple(map(tuple, pvm))
    )


def _raised(check, model):
    try:
        check(model)
    except (NotHermitianError, NotIdempotentError, NotCompleteError) as exc:
        return type(exc), str(exc)
    return None


def test_broken_projections_raise_the_reference_errors():
    third = gaussian(F(1, 3))
    breaks = {
        "skew": lambda m, r, c: gaussian(m[r][c].real, m[r][c].imag + F(1, 7))
        if (r, c) == (0, 1)
        else m[r][c],
        "double": lambda m, r, c: g_add(m[r][c], m[r][c]),
        "zero": lambda m, r, c: gaussian(0),
        "shift": lambda m, r, c: g_add(m[r][c], third) if r == c else m[r][c],
    }
    seen = set()
    rng = random.Random(11)
    for d in (2, 3, 4):
        for seed in range(4):
            model = random_quantum_model(T, T, d, seed)
            for name, change in breaks.items():
                x, y = rng.randrange(3), rng.randrange(3)
                original = model.pvm[x][y]
                matrix = [[change(original, r, c) for c in range(d)] for r in range(d)]
                broken = _replace_projection(model, x, y, matrix)
                expected = _raised(validate_projections, broken)
                assert _raised(validate_quantum_model, broken) == expected
                if expected is not None:
                    with pytest.raises(expected[0]):
                        from_quantum_model(broken)
                    seen.add(expected[0])
    assert seen == {NotHermitianError, NotIdempotentError, NotCompleteError}


def test_compose_quantum_models_matches_effect_formula():
    from syncgames import compose

    inner = random_quantum_model(B, B, 2, 1)
    outer = random_quantum_model(B, T, 2, 2)
    composed = compose_quantum_models(outer, inner)
    assert composed.input_set == B
    assert composed.output_set == T
    assert is_synchronous(composed) and is_nonsignaling(composed)
    assert composed == compose(from_quantum_model(outer), from_quantum_model(inner))


def test_compose_quantum_models_set_mismatch():
    inner = random_quantum_model(B, T, 3, 1)
    outer = random_quantum_model(B, T, 2, 2)
    with pytest.raises(SetMismatchError):
        compose_quantum_models(outer, inner)
