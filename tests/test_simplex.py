"""The exact phase-one simplex behind classical decompositions."""

import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgames import category, constructors, finite_set, simplex
from syncgames.boole import triple_inequalities
from syncgames.corrcore import PairWeights
from syncgames.simplex import SparseColumns, _pivot, _presolve, find_nonnegative_combination


def _sparse(dense):
    """Dense columns as the library's sparse ``(row, coefficient)`` columns."""
    return SparseColumns([(r, v) for r, v in enumerate(column) if v] for column in dense)


def fraction_phase_one(columns, target):
    """Reference: the same method (presolve, Bland's rule) on a dense tableau
    of fractions, pivoting by division.  The presolve drops every column
    forced to 0 by a zero-target row of one sign, then solves over the rest."""
    forced = set()
    for i, b in enumerate(target):
        coeffs = [F(column[i]) for column in columns]
        if b == 0 and (all(v >= 0 for v in coeffs) or all(v <= 0 for v in coeffs)):
            forced |= {j for j, v in enumerate(coeffs) if v != 0}
    kept = [j for j in range(len(columns)) if j not in forced]
    reduced = _fraction_phase_one_unforced([columns[j] for j in kept], target)
    if reduced is None:
        return None
    solution = [F(0)] * len(columns)
    for j, v in zip(kept, reduced):
        solution[j] = v
    return solution


def _fraction_phase_one_unforced(columns, target):
    n = len(columns)
    seen, order = {}, []
    for i, b in enumerate(target):
        coeffs = tuple(F(column[i]) for column in columns)
        if not any(coeffs):
            if b != 0:
                return None
            continue
        if coeffs in seen:
            if seen[coeffs] != b:
                return None
            continue
        seen[coeffs] = F(b)
        order.append(coeffs)
    if not order:
        return [F(0)] * n
    tableau = []
    for coeffs in order:
        sign = -1 if seen[coeffs] < 0 else 1
        tableau.append([sign * v for v in coeffs] + [sign * seen[coeffs]])
    basis = [n + i for i in range(len(tableau))]
    objective = [-sum(column) for column in zip(*tableau)]
    while True:
        entering = next((j for j in range(n) if objective[j] < 0), None)
        if entering is None:
            break
        candidates = [
            (row[-1] / row[entering], basis[i], i) for i, row in enumerate(tableau) if row[entering] > 0
        ]
        leaving = min(candidates)[2]
        pivot_row = tableau[leaving]
        pivot_row[:] = [v / pivot_row[entering] for v in pivot_row]
        for row in tableau + [objective]:
            if row is not pivot_row:
                factor = row[entering]
                row[:] = [v - factor * p for v, p in zip(row, pivot_row)]
        basis[leaving] = entering
    if any(tableau[i][-1] for i in range(len(tableau)) if basis[i] >= n):
        return None
    solution = [F(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            solution[j] = tableau[i][-1]
    return solution


def test_empty_columns():
    assert find_nonnegative_combination(SparseColumns([]), [F(0), F(0)]) == []
    assert find_nonnegative_combination(SparseColumns([]), [F(0), F(1)]) is None


def test_zero_rows():
    columns = [[F(1), F(0)], [F(2), F(0)]]
    assert find_nonnegative_combination(_sparse(columns), [F(1), F(1)]) is None
    assert find_nonnegative_combination(_sparse(columns), [F(1), F(0)]) == [F(1), F(0)]
    assert find_nonnegative_combination(_sparse([[F(0)], [F(0)]]), [F(0)]) == [F(0), F(0)]


def test_duplicate_rows():
    columns = [[F(1), F(1)], [F(0), F(0)]]
    assert find_nonnegative_combination(_sparse(columns), [F(1, 2), F(1, 3)]) is None
    assert find_nonnegative_combination(_sparse(columns), [F(1, 2), F(1, 2)]) == [F(1, 2), F(0)]


def test_negative_targets_flip_the_row():
    columns = [[F(-1), F(0)], [F(0), F(-3)], [F(1), F(1)]]
    assert find_nonnegative_combination(_sparse(columns), [F(-1, 2), F(-1)]) == [F(1, 2), F(1, 3), F(0)]
    assert find_nonnegative_combination(_sparse([[F(1)], [F(2)]]), [F(-1)]) is None


def test_fractional_and_negative_coefficients_share_one_scale():
    # Denominators 2, 3 and 5: the integer tableau carries the scale 30,
    # and the result comes back unscaled.
    columns = [[F(1, 2), F(-1, 3)], [F(2, 5), F(1, 3)], [F(-1), F(-1)]]
    x = find_nonnegative_combination(_sparse(columns), [F(1, 3), F(1, 9)])
    assert x == fraction_phase_one(columns, [F(1, 3), F(1, 9)])
    assert all(v >= 0 for v in x)
    for i, b in enumerate([F(1, 3), F(1, 9)]):
        assert sum(x[j] * columns[j][i] for j in range(3)) == b
    assert find_nonnegative_combination(_sparse([[F(1, 2)], [F(-1, 3)]]), [F(-1)]) == [F(0), F(3)]


def test_ratio_ties_leave_the_smallest_basis_index():
    # The first column enters with equal ratios in both rows; Bland's rule
    # removes row 0's artificial, and the degenerate pivot that follows
    # brings in the third column at value zero.
    columns = [[F(1), F(1)], [F(1), F(0)], [F(0), F(1)]]
    assert find_nonnegative_combination(_sparse(columns), [F(1), F(1)]) == [F(1), F(0), F(0)]
    columns = [[F(1), F(2), F(1)], [F(2), F(4), F(0)], [F(0), F(0), F(1)], [F(1), F(0), F(0)]]
    target = [F(2), F(4), F(1)]
    assert find_nonnegative_combination(_sparse(columns), target) == fraction_phase_one(columns, target)


def test_forced_columns_change_the_vertex():
    # Row 0 has target 0 and coefficients (0, -1, -1, 0, 0, 0), so columns 1
    # and 2 are forced to 0 and dropped.  Bland's rule over all six columns
    # ends at (4, 0, 0, 0, 8, 0); over the kept four it ends at another
    # vertex of the same system.
    columns = [[0, 2, F(1, 2)], [-1, 1, 2], [-1, F(1, 2), 2], [0, 1, 2], [0, -1, 0], [0, -1, 1]]
    target = [0, 0, 2]
    x = find_nonnegative_combination(_sparse(columns), target)
    assert x == fraction_phase_one(columns, target) == [0, 0, 0, 1, 1, 0]


def test_every_column_forced():
    columns = [[F(1), F(0)], [F(2), F(1)]]
    # Row 0 forces both columns; the nonzero target of row 1 is then out of
    # reach, and a zero target leaves the all-zero solution of full length.
    assert find_nonnegative_combination(_sparse(columns), [F(0), F(1)]) is None
    assert find_nonnegative_combination(_sparse(columns), [F(0), F(0)]) == [F(0), F(0)]
    assert fraction_phase_one(columns, [F(0), F(1)]) is None


def test_a_farkas_row_ends_phase_one():
    # x0 + x1 = 1 and x0 + 2 x1 = 3 only hold at x = (-1, 2).  The first
    # pivot brings x0 in through row 0 and the second swaps it for x1, which
    # leaves row 1 as (-1, 0 | 1): -x0 = 1 has no solution with x0 >= 0, so
    # phase one stops there.  A reachable target keeps its vertex.
    columns = [[F(1), F(1)], [F(1), F(2)]]
    assert find_nonnegative_combination(_sparse(columns), [F(1), F(3)]) is None
    assert fraction_phase_one(columns, [F(1), F(3)]) is None
    assert find_nonnegative_combination(_sparse(columns), [F(1), F(2)]) == [F(0), F(1)]


def test_a_nonpositive_zero_row_forces_its_columns():
    columns = [[F(-1), F(1)], [F(0), F(1)], [F(-2), F(3)]]
    kept, rows = _presolve(_sparse(columns), [F(0), F(2)])
    assert kept == [1] and rows == [(((0, F(1)),), F(2))]
    assert find_nonnegative_combination(_sparse(columns), [F(0), F(2)]) == [F(0), F(2), F(0)]
    assert find_nonnegative_combination(_sparse(columns), [F(0), F(-1)]) is None


def test_a_mixed_sign_zero_row_forces_nothing():
    columns = [[F(1), F(1)], [F(-1), F(1)], [F(0), F(1)]]
    assert _presolve(_sparse(columns), [F(0), F(2)])[0] == [0, 1, 2]
    # x0 - x1 = 0 lets both columns take positive values.
    x = find_nonnegative_combination(_sparse(columns), [F(0), F(2)])
    assert x == fraction_phase_one(columns, [F(0), F(2)]) == [F(1), F(1), F(0)]


def test_a_pruned_solution_keeps_the_callers_length():
    # Strategy-like 0/1 columns: row 0 forces columns 0 and 2, the rest solve
    # the system, and the solution still has one entry per column.
    columns = [[1, 1, 0], [0, 1, 0], [1, 0, 1], [0, 0, 1], [0, 1, 1]]
    target = [0, F(1, 3), F(2, 3)]
    x = find_nonnegative_combination(_sparse(columns), target)
    assert len(x) == len(columns)
    assert x[0] == x[2] == 0
    assert x == fraction_phase_one(columns, target)
    for i, b in enumerate(target):
        assert sum(x[j] * columns[j][i] for j in range(len(columns))) == b


def test_a_zero_coefficient_is_skipped():
    # Row 0 has target 0.  Skipping column 1's explicit zero there leaves
    # one sign, so row 0 forces column 0 alone.  Read as a negative sign the
    # zero would force nothing; read as an entry it would force column 1 as
    # well, and row 1 would be out of reach.
    target = [F(0), F(1)]
    explicit = SparseColumns([[(0, F(1)), (1, F(1))], [(0, F(0)), (1, F(1))]])
    dense = [[F(1), F(1)], [F(0), F(1)]]
    expected = ([1], [(((0, F(1)),), F(1))])
    assert _presolve(explicit, target) == _presolve(_sparse(dense), target) == expected
    assert find_nonnegative_combination(explicit, target) == [F(0), F(1)]


def test_the_final_check_reads_the_returned_values(monkeypatch):
    # Each value built one unit off its tableau entry fails the check.
    monkeypatch.setattr(simplex, "Fraction", lambda n, d: F(n + 1, d))
    with pytest.raises(AssertionError, match="fails verification"):
        find_nonnegative_combination(_sparse([[1, 0], [0, 1]]), [F(1, 2), F(1, 3)])


def test_a_repeated_row_in_a_column_is_rejected():
    with pytest.raises(ValueError, match="column 1 repeats row 0"):
        find_nonnegative_combination(SparseColumns([[(0, 1)], [(0, 1), (1, 2), (0, 1)]]), [1, 1])
    # Also in a column that the forcing rule would drop.
    with pytest.raises(ValueError, match="column 0 repeats row 1"):
        find_nonnegative_combination(SparseColumns([[(1, 1), (0, 1), (1, 1)], [(1, 1)]]), [0, 1])


def test_a_negative_row_is_rejected():
    # Read as an index, row -1 would be the last row of the target.
    with pytest.raises(ValueError, match="column 1 has a negative row -1"):
        SparseColumns([[(0, 1)], [(-1, 1)]])
    with pytest.raises(ValueError, match="negative row"):
        SparseColumns([[(0, 1), (-2, 0)]])


def test_a_row_beyond_the_target_is_rejected():
    columns = SparseColumns([[(0, 1)], [(2, 1)]])
    assert columns.top == 2
    with pytest.raises(ValueError, match="row 2 is beyond a target of length 2"):
        find_nonnegative_combination(columns, [0, 1])
    # An explicit zero still names its row.
    with pytest.raises(ValueError, match="row 3 is beyond"):
        find_nonnegative_combination(SparseColumns([[(0, 1), (3, 0)]]), [1, 0, 0])
    assert find_nonnegative_combination(columns, [0, 0, 1]) == [F(0), F(1)]


def test_sparse_columns_record_masks_and_mixed_rows():
    columns = SparseColumns([[(0, 1), (2, F(-1, 2))], [(2, 3), (1, 0)], []])
    assert len(columns) == 3
    assert list(columns) == [((0, 1), (2, F(-1, 2))), ((2, 3), (1, 0)), ()]
    assert columns.masks == (0b101, 0b100, 0)
    assert columns.mixed == 0b100
    assert columns.top == 2
    assert SparseColumns([]).top == -1


def test_only_sparse_columns_are_accepted():
    with pytest.raises(TypeError, match="SparseColumns"):
        find_nonnegative_combination([[(0, 1)]], [1])


_ENTRIES = st.sampled_from([F(0), F(0), F(1), F(1), F(-1), F(2), F(1, 2), F(-2, 3), F(5, 7)])


@st.composite
def systems(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    columns = [[draw(_ENTRIES) for _ in range(m)] for _ in range(n)]
    if draw(st.booleans()):
        x = [draw(st.sampled_from([F(0), F(0), F(1), F(1, 2), F(3, 4)])) for _ in range(n)]
        target = [sum((x[j] * columns[j][i] for j in range(n)), F(0)) for i in range(m)]
    else:
        target = [draw(_ENTRIES) for _ in range(m)]
    return columns, target


def full_update(rows, k, col, den):
    """Reference: every row but ``k`` as ``(piv * row - f * rows[k]) // den``."""
    pivot_row, piv = rows[k], rows[k][col]
    updated = []
    for i, row in enumerate(rows):
        if i == k:
            updated.append(list(row))
            continue
        numerators = [piv * a - row[col] * p for a, p in zip(row, pivot_row)]
        assert all(v % den == 0 for v in numerators), "Bareiss division must be exact"
        updated.append([v // den for v in numerators])
    return updated


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pivot_is_the_full_bareiss_update(data):
    # A chain of pivots from den = 1, each on any nonzero entry: a basis
    # exchange, as the simplex takes, or a new row, as the nullspaces take.
    # Half the steps pivot on an entry equal to den when there is one, so
    # both paths run, with negative pivots and denominators among them.
    height, width = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    row = st.lists(st.integers(-4, 4), min_size=width, max_size=width)
    rows = data.draw(st.lists(row, min_size=height, max_size=height))
    den = 1
    for _ in range(data.draw(st.integers(1, 6))):
        nonzero = [(i, j) for i, r in enumerate(rows) for j, v in enumerate(r) if v]
        if not nonzero:
            break
        unit = [(i, j) for i, j in nonzero if rows[i][j] == den]
        k, col = data.draw(st.sampled_from(unit if unit and data.draw(st.booleans()) else nonzero))
        expected = full_update(rows, k, col, den)
        piv = rows[k][col]
        assert _pivot(rows, k, col, den) == piv
        assert rows == expected
        den = piv


@settings(max_examples=300, deadline=None)
@given(systems())
def test_same_vertex_as_the_fraction_tableau(system):
    columns, target = system
    x = find_nonnegative_combination(_sparse(columns), target)
    assert x == fraction_phase_one(columns, target)


@settings(max_examples=200, deadline=None)
@given(systems(), st.randoms(use_true_random=False))
def test_entry_order_and_explicit_zeros_leave_the_answer(system, rng):
    columns, target = system
    shuffled = []
    for column in columns:
        entries = [(r, v) for r, v in enumerate(column) if v or rng.random() < 0.5]
        rng.shuffle(entries)
        shuffled.append(entries)
    shuffled = SparseColumns(shuffled)
    assert _presolve(shuffled, target) == _presolve(_sparse(columns), target)
    x = find_nonnegative_combination(shuffled, target)
    assert x == find_nonnegative_combination(_sparse(columns), target)


# Distinct large primes: a target over several of them has a large lcm.
_PRIMES = (10007, 65537, 999983, 2**31 - 1, 2**61 - 1)
_RHS = st.one_of(
    st.integers(-3, 3),
    st.builds(F, st.integers(-40, 40), st.sampled_from(_PRIMES)),
)


def test_large_prime_denominators_and_a_negative_row():
    columns = [[F(1), F(0), F(1)], [F(0), F(-1), F(1)], [F(1), F(-1), F(0)]]
    x = [F(1, p) for p in _PRIMES[2:]]
    target = [sum(x[j] * columns[j][i] for j in range(3)) for i in range(3)]
    assert target[1] < 0
    assert find_nonnegative_combination(_sparse(columns), target) == x == fraction_phase_one(columns, target)


def test_ratio_ties_across_different_denominators():
    # When the third column enters, rows 0 and 2 tie at the ratio 3; their
    # right-hand sides started as 3/4 and 3/2.  Bland's rule removes row 0,
    # whose basic variable is the second column, not row 2's artificial; the
    # other choice ends at the vertex (0, 7/20, 4/5, 7/10).
    columns = [[F(1), F(1), F(0)], [F(1), F(2), F(0)], [F(1, 2), F(1, 3), F(1)], [F(0), F(1), F(1)]]
    target = [F(3, 4), F(5, 3), F(3, 2)]
    x = find_nonnegative_combination(_sparse(columns), target)
    assert x == fraction_phase_one(columns, target) == [F(1, 2), F(0), F(1, 2), F(1)]


def test_plain_int_target():
    columns = [[1, 0, 2], [0, 2, 1], [1, 1, 1]]
    assert find_nonnegative_combination(_sparse(columns), [3, 4, 5]) == fraction_phase_one(columns, [3, 4, 5])
    assert find_nonnegative_combination(_sparse(columns), [-1, 0, 1]) is None


@st.composite
def rational_rhs_systems(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    columns = [[draw(_ENTRIES) for _ in range(m)] for _ in range(n)]
    kind = draw(st.sampled_from(["feasible", "tied", "free"]))
    if kind == "feasible":
        x = [abs(draw(_RHS)) for _ in range(n)]
        target = [sum(x[j] * columns[j][i] for j in range(n)) for i in range(m)]
    elif kind == "tied":
        # Every row ties in the first column's ratio test, mostly over
        # different denominators.
        columns[0] = [F(draw(st.integers(1, 9)), draw(st.sampled_from((1, 2, 3, 5, 7)))) for _ in range(m)]
        ratio = abs(draw(_RHS)) or F(1)
        target = [ratio * v for v in columns[0]]
    else:
        target = [draw(_RHS) for _ in range(m)]
    return columns, target


@settings(max_examples=200, deadline=None)
@given(rational_rhs_systems())
def test_same_vertex_with_rational_and_int_targets(system):
    columns, target = system
    assert find_nonnegative_combination(_sparse(columns), target) == fraction_phase_one(columns, target)


def labels(n):
    return finite_set([str(i) for i in range(n)])


def _mixture(seed, nx, ny):
    rng = random.Random(seed)
    chosen = set()
    while len(chosen) < 8:
        chosen.add(tuple(rng.randrange(ny) for _ in range(nx)))
    raw = {f: rng.randint(1, 8) for f in sorted(chosen)}
    total = sum(raw.values())
    mu = {f: F(k, total) for f, k in raw.items()}
    return constructors.from_classical_model(constructors.classical_model(labels(nx), labels(ny), mu))


def _widened_quantum(seed):
    model = constructors.random_quantum_model(labels(3), labels(2), 2, seed)
    g = constructors.from_function_indices(labels(2), labels(4), (3, 1))
    return category.compose(g, constructors.from_quantum_model(model))


# Models returned by the Fraction tableau this kernel replaced.
PINNED = {
    "mixture 4->3": (
        lambda: _mixture(1, 4, 3),
        {
            (0, 1, 0, 0): "7/43", (0, 1, 1, 1): "4/43", (0, 2, 0, 1): "7/43",
            (0, 2, 2, 0): "1/43", (1, 0, 1, 1): "4/43", (1, 2, 0, 2): "8/43",
            (2, 0, 2, 1): "8/43", (2, 1, 0, 0): "4/43",
        },
    ),
    "widened quantum 3->4": (
        lambda: _widened_quantum(3),
        {
            (1, 1, 1): "43120856837644300304/97493222380556640625",
            (1, 1, 3): "920361114280424229336/81991800022048134765625",
            (1, 3, 1): "466994519138064377313/56351082535961738281250",
            (1, 3, 3): "904978412328747256107696/23695630206371910947265625",
            (3, 1, 3): "42196797744329817/907867681905031250",
            (3, 3, 1): "391854089831688/7929568566015625",
            (3, 3, 3): "383020108848154491539168/947825208254876437890625",
        },
    ),
    "random_classical_model 4->3": (
        lambda: constructors.from_classical_model(
            constructors.random_classical_model(labels(4), labels(3), 0)
        ),
        {
            (0, 0, 0, 0): "3/350", (0, 0, 0, 1): "1/35", (0, 0, 0, 2): "3/350",
            (0, 0, 1, 0): "11/175", (0, 0, 1, 2): "1/35", (0, 1, 0, 2): "9/175",
            (0, 1, 1, 2): "4/175", (0, 1, 2, 0): "3/175", (0, 1, 2, 2): "1/70",
            (0, 2, 0, 1): "1/350", (0, 2, 2, 0): "2/175", (0, 2, 2, 1): "2/25",
            (0, 2, 2, 2): "1/350", (1, 0, 0, 0): "8/175", (1, 0, 0, 1): "1/25",
            (1, 0, 1, 0): "1/175", (1, 0, 1, 1): "11/350", (1, 0, 2, 0): "1/70",
            (1, 1, 1, 2): "4/175", (1, 1, 2, 0): "27/350", (1, 2, 1, 2): "27/350",
            (1, 2, 2, 0): "1/175", (2, 0, 1, 1): "9/350", (2, 0, 2, 1): "3/350",
            (2, 0, 2, 2): "17/175", (2, 1, 0, 1): "8/175", (2, 1, 0, 2): "1/50",
            (2, 1, 1, 0): "4/175", (2, 1, 1, 1): "8/175", (2, 2, 0, 0): "11/175",
            (2, 2, 1, 0): "2/175",
        },
    ),
}


def test_classical_decomposition_passes_one_sparse_column_per_strategy(monkeypatch):
    calls = []

    def spy(columns, target):
        calls.append((columns, target))
        return find_nonnegative_combination(columns, target)

    monkeypatch.setattr(category, "find_nonnegative_combination", spy)
    for nx, ny in ((3, 2), (2, 3)):
        calls.clear()
        assert category.classical_decomposition(_mixture(nx, nx, ny)) is not None
        [(columns, target)] = calls
        assert columns is category._strategies(nx, ny)[1]
        assert len(columns) == ny**nx and len(target) == ny**2 * nx**2
        for f, column in zip(constructors.enumerate_functions(nx, ny), columns):
            assert len(column) == nx**2
            dense = [0] * len(target)
            for r, v in column:
                dense[r] += v
            strategy = constructors.from_function_indices(labels(nx), labels(ny), f)
            assert dense == [v for row in strategy.matrix for v in row]


def test_strategy_columns_are_prepared_once_per_shape():
    first = category._strategies(3, 2)
    assert isinstance(first[1], SparseColumns)
    assert category._strategies(3, 2) is first
    assert category._strategies(3, 2)[1] is first[1]
    assert category._strategies(2, 3)[1] is not first[1]


def test_the_target_is_the_correlation_over_its_column_lcm(monkeypatch):
    # The LP sees D * p in integers, D the lcm of the column lcms, and its
    # solution is D times the returned measure.
    calls = []

    def spy(columns, target):
        x = find_nonnegative_combination(columns, target)
        calls.append((target, x))
        return x

    monkeypatch.setattr(category, "find_nonnegative_combination", spy)
    p = _mixture(1, 4, 3)
    model = category.classical_decomposition(p)
    [(target, x)] = calls
    d = lcm(*(v.denominator for row in p.matrix for v in row))
    assert all(type(v) is int for v in target)
    assert target == [v * d for row in p.matrix for v in row]
    functions, _ = category._strategies(4, 3)
    assert model.mu == {f: v / d for f, v in zip(functions, x) if v}


def test_pinned_models():
    for name, (build, expected) in PINNED.items():
        model = category.classical_decomposition(build())
        assert model.mu == {f: F(v) for f, v in expected.items()}, name


_FORMS = [ineq.normal_form() for ineq in triple_inequalities().inequalities]


def _triple_values(w):
    env = {"1": F(1)}
    for a in range(3):
        for b in range(a, 3):
            env[f"w(x{a},x{b})"] = w[a][b]
    return [sum((c * env[s] for s, c in form.items()), F(0)) for form in _FORMS]


def _ns_weights(rng, grid):
    """Symmetric nonsignaling pairwise weights on three inputs, multiples of
    ``1 / grid``; a coarse grid often meets an inequality with equality."""
    diag = [F(rng.randint(1, grid - 1), grid) for _ in range(3)]
    w = [[F(0)] * 3 for _ in range(3)]
    for a in range(3):
        w[a][a] = diag[a]
        for b in range(a):
            low, high = max(F(0), diag[a] + diag[b] - 1), min(diag[a], diag[b])
            steps = int((high - low) * grid)
            w[a][b] = w[b][a] = low + F(rng.randint(0, steps), grid)
    return w


def test_lp_agrees_with_the_sixteen_triple_inequalities():
    seen = set()
    for seed in range(300):
        w = _ns_weights(random.Random(seed), (2, 4, 12)[seed % 3])
        p = constructors.two_output_nonsignaling(PairWeights(labels(3), tuple(map(tuple, w))))
        low = min(_triple_values(w))
        model = category.classical_decomposition(p)
        assert (model is not None) == (low >= 0), (seed, w)
        if model is not None:
            assert constructors.from_classical_model(model) == p
        seen.add((low > 0) - (low < 0))
    assert seen == {-1, 0, 1}, "violated, tight and strict cases all occur"
