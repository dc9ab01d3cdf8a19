import gc
import random
import sys
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgames import (
    DeterministicPair,
    classical_decomposition,
    classify,
    compose,
    deterministic_function,
    enumerate_functions,
    finite_set,
    from_classical_model,
    from_deterministic_pair,
    from_function,
    classical_model,
    identity,
    is_deterministic,
    is_nonsignaling,
    is_symmetric,
    is_synchronous,
    make_correlation,
    pair_distribution,
    pair_weights,
    random_correlation,
    two_input_nonsignaling,
    two_output_nonsignaling,
)
from syncgames import category, corrcore, morphology
from syncgames.corrcore import ZERO
from syncgames.errors import NotSynchronousError, SetMismatchError

B = finite_set(["0", "1"])
T = finite_set(["0", "1", "2"])

UNIFORM = make_correlation(B, B, [["1/4"] * 4] * 4)

HALF_DIAGONAL = from_classical_model(
    classical_model(B, B, {(0, 0): F(1, 2), (1, 1): F(1, 2)})
)

CYCLIC = two_input_nonsignaling(
    pair_distribution(T, [["0", "1/3", "0"], ["0", "0", "1/3"], ["1/3", "0", "0"]]),
    pair_distribution(T, [["0", "1/3", "0"], ["0", "0", "1/3"], ["1/3", "0", "0"]]),
)

SIGNALING = from_deterministic_pair(
    DeterministicPair(B, B, ((0, 1), (1, 1)), ((0, 0), (1, 1)))
)


def test_identity_laws():
    for seed in range(3):
        p = random_correlation("classical", B, T, seed)
        assert compose(identity(T), p) == p
        assert compose(p, identity(B)) == p


def test_negation_composes_to_identity():
    negation = from_function(B, B, {"0": "1", "1": "0"})
    assert compose(negation, negation) == identity(B)


_LARGE_PRIMES = (1000003, 1000033, 2**31 - 1, 2**61 - 1)
_PRIME_WEIGHTS = st.builds(F, st.integers(1, 10**6), st.sampled_from(_LARGE_PRIMES))


@st.composite
def correlations(draw, input_set, output_set):
    """Correlations with zero entries and large prime-based denominators."""
    weight = st.one_of(
        st.just(F(0)),
        st.integers(1, 5).map(F),
        st.builds(F, st.integers(1, 10**6), st.sampled_from(_LARGE_PRIMES)),
    )
    columns = []
    for _ in range(input_set.pair_count):
        column = [draw(weight) for _ in range(output_set.pair_count)]
        total = sum(column, F(0))
        if total == 0:
            column[draw(st.integers(0, len(column) - 1))] = total = F(1)
        columns.append([v / total for v in column])
    return make_correlation(input_set, output_set, [list(row) for row in zip(*columns)])


@st.composite
def composable_pairs(draw):
    x, y, z = (draw(st.sampled_from([B, T])) for _ in range(3))
    return draw(correlations(y, z)), draw(correlations(x, y))


@settings(max_examples=40, deadline=None)
@given(composable_pairs())
def test_compose_matches_double_sum(pair):
    q, p = pair
    composed = compose(q, p)
    for za, zb in q.output_set.pairs():
        for xa, xb in p.input_set.pairs():
            total = F(0)
            for ya, yb in p.output_set.pairs():
                total += q.entry_by_index(za, zb, ya, yb) * p.entry_by_index(ya, yb, xa, xb)
            value = composed.entry_by_index(za, zb, xa, xb)
            assert value == total
            assert value != 0 or value is ZERO


def test_compose_set_mismatch():
    p = random_correlation("synchronous", B, T, 0)
    q = random_correlation("synchronous", B, B, 0)
    with pytest.raises(SetMismatchError):
        compose(q, p)
    # same sizes but different labels still mismatch
    primed = finite_set(["a", "b", "c"])
    r = random_correlation("synchronous", primed, B, 0)
    with pytest.raises(SetMismatchError):
        compose(r, p)


def test_compose_associativity():
    for seed in range(3):
        p = random_correlation("synchronous", B, T, seed)
        q = random_correlation("synchronous", T, B, seed + 7)
        r = random_correlation("synchronous", B, T, seed + 13)
        assert compose(r, compose(q, p)) == compose(compose(r, q), p)


def test_is_synchronous_examples():
    assert is_synchronous(from_function(B, T, {"0": "2", "1": "0"}))
    assert not is_synchronous(UNIFORM)
    assert is_synchronous(CYCLIC)


def test_is_nonsignaling_examples():
    assert is_nonsignaling(from_function(B, B, {"0": "0", "1": "0"}))
    assert not is_nonsignaling(SIGNALING)
    assert is_synchronous(SIGNALING)


def reference_is_nonsignaling(p):
    """The ``Fraction`` marginal sums the integer check replaced."""
    nx = p.input_set.size
    ny = p.output_set.size

    def a_marginal(ya, xa, xb):
        c = p.input_set.pair_index(xa, xb)
        return sum((p.matrix[p.output_set.pair_index(ya, yb)][c] for yb in range(ny)), F(0))

    def b_marginal(yb, xa, xb):
        c = p.input_set.pair_index(xa, xb)
        return sum((p.matrix[p.output_set.pair_index(ya, yb)][c] for ya in range(ny)), F(0))

    for ya in range(ny):
        for xa in range(nx):
            reference = a_marginal(ya, xa, 0)
            for xb in range(1, nx):
                if a_marginal(ya, xa, xb) != reference:
                    return False
    for yb in range(ny):
        for xb in range(nx):
            reference = b_marginal(yb, 0, xb)
            for xa in range(1, nx):
                if b_marginal(yb, xa, xb) != reference:
                    return False
    return True


@st.composite
def mixtures_with_one_moved_entry(draw):
    """A classical mixture (nonsignaling) with large prime denominators,
    then, half the time, mass moved between one pair of entries of one
    column, which usually makes it signaling."""
    x, y = draw(st.sampled_from([B, T])), draw(st.sampled_from([B, T]))
    functions = list(enumerate_functions(x.size, y.size))
    raw = [draw(st.one_of(st.just(F(0)), _PRIME_WEIGHTS)) for _ in functions]
    total = sum(raw, F(0))
    if total == 0:
        raw[0] = total = F(1)
    p = from_classical_model(classical_model(x, y, {f: v / total for f, v in zip(functions, raw)}))
    if not draw(st.booleans()):
        return p
    matrix = [list(row) for row in p.matrix]
    c = draw(st.integers(0, p.column_count - 1))
    source = draw(st.sampled_from([r for r in range(p.row_count) if matrix[r][c]]))
    target = draw(st.integers(0, p.row_count - 1))
    moved = matrix[source][c] / draw(st.sampled_from(_LARGE_PRIMES))
    matrix[source][c] -= moved
    matrix[target][c] += moved
    return make_correlation(x, y, matrix)


@settings(max_examples=150, deadline=None)
@given(st.one_of(mixtures_with_one_moved_entry(), correlations(B, B), correlations(T, B)))
def test_integer_nonsignaling_equals_the_fraction_marginals(p):
    assert is_nonsignaling(p) == reference_is_nonsignaling(p)


def test_one_moved_entry_pair_makes_signaling():
    q = 2**61 - 1
    p = from_classical_model(classical_model(B, B, {(0, 1): F(1, q), (1, 0): F(q - 1, q)}))
    assert is_nonsignaling(p) and reference_is_nonsignaling(p)
    matrix = [list(row) for row in p.matrix]
    # column (x1, x0): move 1/q**2 from (y1, y0) to (y1, y1), changing
    # only Bob's marginal there
    c = B.pair_index(1, 0)
    matrix[B.pair_index(1, 0)][c] -= F(1, q * q)
    matrix[B.pair_index(1, 1)][c] += F(1, q * q)
    moved = make_correlation(B, B, matrix)
    assert not is_nonsignaling(moved) and not reference_is_nonsignaling(moved)


def test_nonsignaling_closed_under_composition():
    for seed in range(3):
        p = random_correlation("two_input_ns", B, T, seed)
        q = random_correlation("two_output_ns", T, B, seed)
        composed = compose(q, p)
        assert is_nonsignaling(composed)
        assert is_synchronous(composed)


def test_synchronous_closed_under_composition():
    for seed in range(5):
        p = random_correlation("synchronous", B, T, seed)
        q = random_correlation("synchronous", T, B, seed + 31)
        assert is_synchronous(compose(q, p))


def test_classical_closed_under_composition():
    for seed in range(3):
        p = random_correlation("classical", B, T, seed)
        q = random_correlation("classical", T, B, seed + 5)
        composed = compose(q, p)
        model = classical_decomposition(composed)
        assert model is not None
        assert from_classical_model(model) == composed


def test_is_symmetric_examples():
    assert is_symmetric(identity(T))
    for seed in range(3):
        assert is_symmetric(random_correlation("classical", B, T, seed))
    assert not is_symmetric(CYCLIC)
    # Mass moved from output (0, 0) to (1, 1) at input (0, 1) breaks symmetry
    # only inside the two output rows that the swap fixes.
    matrix = [list(row) for row in make_correlation(B, B, [["1/4"] * 4] * 4).matrix]
    matrix[0][1], matrix[3][1] = F(1, 8), F(3, 8)
    assert not is_symmetric(make_correlation(B, B, matrix))


@settings(max_examples=150, deadline=None)
@given(st.one_of(mixtures_with_one_moved_entry(), correlations(T, B), correlations(B, T)))
def test_is_symmetric_matches_its_definition(p):
    # A moved entry of a mixture breaks symmetry at one entry, in a row the
    # swap fixes or in one it moves.
    expected = all(
        p.entry_by_index(ya, yb, xa, xb) == p.entry_by_index(yb, ya, xb, xa)
        for ya, yb in p.output_set.pairs()
        for xa, xb in p.input_set.pairs()
    )
    assert is_symmetric(p) == expected


def test_is_deterministic_roundtrip():
    pair = DeterministicPair(B, T, ((2, 0), (1, 2)), ((2, 1), (0, 2)))
    assert is_deterministic(from_deterministic_pair(pair)) == pair


def test_is_deterministic_counterexample_and_identity():
    assert is_deterministic(HALF_DIAGONAL) is None
    pair = is_deterministic(identity(B))
    assert pair is not None
    assert pair.f_a == ((0, 0), (1, 1))
    assert pair.f_b == ((0, 1), (0, 1))


def test_deterministic_function_examples():
    assert deterministic_function(identity(B)) == (0, 1)
    assert deterministic_function(from_function(B, B, {"0": "0", "1": "0"})) == (0, 0)
    y4 = finite_set(["0", "1", "2", "3"])
    cross = DeterministicPair(B, y4, ((0, 2), (3, 1)), ((0, 3), (2, 1)))
    assert deterministic_function(from_deterministic_pair(cross)) is None
    assert deterministic_function(HALF_DIAGONAL) is None


def test_classical_decomposition_reexpands():
    model = classical_decomposition(HALF_DIAGONAL)
    assert model is not None
    assert from_classical_model(model) == HALF_DIAGONAL


def test_classical_decomposition_none_for_asymmetric():
    assert classical_decomposition(CYCLIC) is None


def test_classify_solves_no_lp_for_an_asymmetric_input(monkeypatch):
    calls = []
    solve = category.find_nonnegative_combination

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(category, "find_nonnegative_combination", counted)
    label = classify(CYCLIC)
    assert (label.synchronous, label.symmetric, label.classical_decided) == (True, False, True)
    assert label.classical is None
    assert calls == []


def _count_calls(monkeypatch, original):
    """Count calls through every ``syncgames`` binding of ``original``, each
    recorded by the module that made it."""
    callers = []

    def counted(*args):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "syncgames":
            for attribute, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attribute, counted)
    return callers


def test_classify_clears_no_column_of_a_built_correlation(monkeypatch):
    # Two-colouring three inputs: symmetric and nonsignaling, not classical.
    half = F(1, 2)
    odd_cycle = two_output_nonsignaling(
        pair_weights(T, [[half, 0, 0], [0, half, 0], [0, 0, half]])
    )
    inputs = [odd_cycle, CYCLIC, SIGNALING, UNIFORM, identity(T), HALF_DIAGONAL]
    callers = _count_calls(monkeypatch, corrcore.common_denominator)
    make_correlation(B, B, [["1/4"] * 4] * 4)
    assert callers == [], "rational text is read straight into integer columns"
    labels = [classify(p) for p in inputs]
    assert [label.classical is not None for label in labels] == [False] * 4 + [True] * 2
    assert labels[0].symmetric and labels[0].nonsignaling
    # The predicates and the LP read the kept columns, and each returned
    # model is built from the LP's integers.
    assert callers == []


def test_classify_computes_each_class_fact_once(monkeypatch):
    half = F(1, 2)
    odd_cycle = two_output_nonsignaling(
        pair_weights(T, [[half, 0, 0], [0, half, 0], [0, 0, half]])
    )
    # The first three are synchronous, nonsignaling and symmetric, so only
    # they solve the HV linear program.
    inputs = [odd_cycle, HALF_DIAGONAL, identity(T), CYCLIC, SIGNALING, UNIFORM]
    solves = [1, 1, 1, 0, 0, 0]
    names = [
        "is_synchronous",
        "is_nonsignaling",
        "is_symmetric",
        "is_deterministic",
        "classical_decomposition",
    ]
    calls = {name: _count_calls(monkeypatch, getattr(category, name)) for name in names}
    for p, solved in zip(inputs, solves):
        for callers in calls.values():
            callers.clear()
        label = classify(p)
        counts = {name: len(callers) for name, callers in calls.items()}
        assert counts["is_nonsignaling"] == counts["is_symmetric"] == 1
        assert counts["is_deterministic"] == 1
        assert counts["classical_decomposition"] == solved
        # classical_decomposition reads the analysis' synchronicity.
        assert counts["is_synchronous"] == 1
        assert not any(
            r is p or isinstance(r, morphology.Analysis) for r in gc.get_referents(label)
        )


def test_models_of_one_shape_share_their_keys():
    first = classical_decomposition(HALF_DIAGONAL)
    second = classical_decomposition(from_function(B, B, {"0": "0", "1": "0"}))
    assert second.weights[0][0] == (0, 0)
    assert second.weights[0][0] is first.weights[0][0]


def test_a_kept_classify_result_is_small():
    # An 8-function mixture on 4 -> 3.  The first call warms the shared
    # strategy keys; the second result is what a caller keeps.
    rng = random.Random(1)
    chosen = set()
    while len(chosen) < 8:
        chosen.add(tuple(rng.randrange(3) for _ in range(4)))
    raw = {f: rng.randint(1, 8) for f in sorted(chosen)}
    mu = {f: F(k, sum(raw.values())) for f, k in raw.items()}
    p = from_classical_model(classical_model(finite_set(list("0123")), T, mu))
    tracemalloc.start()
    try:
        classify(p)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        kept = classify(p)
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept.classical.support()) == 8
    assert size <= 900, size


def test_classical_decomposition_point_mass():
    p = from_function(B, T, {"0": "2", "1": "1"})
    model = classical_decomposition(p)
    assert model is not None
    assert model.mu == {(2, 1): F(1)}


def test_classical_decomposition_requires_synchronous():
    with pytest.raises(NotSynchronousError):
        classical_decomposition(UNIFORM)


def test_classify_identity():
    label = classify(identity(B))
    assert label.synchronous and label.nonsignaling and label.symmetric
    assert label.deterministic is not None
    assert label.classical is not None
    assert label.classical_decided


def test_classify_uniform_skips_lp():
    label = classify(UNIFORM)
    assert not label.synchronous
    assert label.nonsignaling and label.symmetric
    assert label.deterministic is None
    assert label.classical is None
    assert not label.classical_decided


def test_classical_witnesses_sit_inside_hierarchy():
    for seed in range(3):
        p = random_correlation("classical", T, B, seed)
        label = classify(p)
        assert label.classical is not None
        assert label.synchronous and label.symmetric and label.nonsignaling
        assert from_classical_model(label.classical) == p
