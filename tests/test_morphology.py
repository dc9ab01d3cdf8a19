import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgames import (
    CategoryTag,
    DeterministicPair,
    analyze,
    classical_decomposition,
    classical_model,
    classify,
    compose,
    deserialize,
    epi_witness,
    finite_set,
    from_classical_model,
    from_deterministic_pair,
    from_function,
    identity,
    is_bimorphism,
    is_deterministic,
    is_epimorphism,
    is_isomorphism,
    is_member,
    is_monomorphism,
    is_nonsignaling,
    is_retraction,
    is_section,
    is_symmetric,
    is_synchronous,
    left_nullspace_basis,
    make_correlation,
    mono_witness,
    pair_distribution,
    random_correlation,
    require_member,
    retraction_right_inverse,
    right_nullspace_basis,
    section_left_inverse,
    serialize,
    two_input_nonsignaling,
    witness_from_json_dict,
    witness_to_json_dict,
)
from syncgames import cli, morphology
from syncgames.corrcore import ZERO, Correlation, common_denominator
from syncgames.errors import (
    NotARetractionError,
    NotASectionError,
    NotInCategoryError,
    ParseError,
)

B = finite_set(["0", "1"])
T = finite_set(["0", "1", "2"])
ALL_TAGS = ("S", "NS", "Q", "HV")

CONST_ZERO = from_function(B, B, {"0": "0", "1": "0"})

HALF_DIAGONAL = from_classical_model(
    classical_model(B, B, {(0, 0): F(1, 2), (1, 1): F(1, 2)})
)

CYCLIC = two_input_nonsignaling(
    pair_distribution(T, [["0", "1/3", "0"], ["0", "0", "1/3"], ["1/3", "0", "0"]]),
    pair_distribution(T, [["0", "1/3", "0"], ["0", "0", "1/3"], ["1/3", "0", "0"]]),
)

UNIFORM = make_correlation(B, B, [["1/4"] * 4] * 4)

SIGNALING = from_deterministic_pair(
    DeterministicPair(B, B, ((0, 1), (1, 1)), ((0, 0), (1, 1)))
)

SKEW_MIX = from_classical_model(
    classical_model(B, B, {(0, 0): F(1, 2), (0, 1): F(1, 4), (1, 0): F(1, 4)})
)


def as_sympy(p):
    return sympy.Matrix(
        [[sympy.Rational(v) for v in row] for row in p.matrix]
    )


def check_witness(p, witness, side):
    assert witness.side == side
    assert witness.q_plus != witness.q_minus
    if side == "mono":
        assert compose(p, witness.q_plus) == compose(p, witness.q_minus)
    else:
        assert compose(witness.q_plus, p) == compose(witness.q_minus, p)
    for member in (witness.q_plus, witness.q_minus):
        assert is_member(member, witness.category)


# ---------------------------------------------------------------------------
# Nullspaces.
# ---------------------------------------------------------------------------


def test_right_nullspace_identity_empty():
    assert right_nullspace_basis(identity(B)) == []
    assert right_nullspace_basis(identity(T)) == []


def test_right_nullspace_constant_canonical_basis():
    basis = right_nullspace_basis(CONST_ZERO)
    assert [v.entries for v in basis] == [
        (F(-1), F(1), F(0), F(0)),
        (F(-1), F(0), F(1), F(0)),
        (F(-1), F(0), F(0), F(1)),
    ]
    for vector in basis:
        assert vector.side == "right"
        assert vector.base_set == B


def test_right_nullspace_half_diagonal_dimension():
    assert len(right_nullspace_basis(HALF_DIAGONAL)) == 3


def test_left_nullspace_examples():
    onto = from_function(T, B, {"0": "0", "1": "1", "2": "1"})
    assert left_nullspace_basis(onto) == []
    assert left_nullspace_basis(identity(T)) == []
    single = from_function(finite_set(["0"]), B, {"0": "0"})
    basis = left_nullspace_basis(single)
    assert len(basis) == 3
    assert basis[0].entries == (F(0), F(1), F(0), F(0))
    for vector in basis:
        assert vector.side == "left"
        assert vector.base_set == B


def vectors_kill_matrix(p, basis, side):
    m = as_sympy(p)
    for vector in basis:
        col = sympy.Matrix([sympy.Rational(v) for v in vector.entries])
        product = m * col if side == "right" else col.T * m
        assert all(value == 0 for value in product)


def reference_rref(rows, width):
    """Gauss-Jordan over ``Fraction``s: the library's elimination before it ran in integers."""
    matrix = [row[:] for row in rows]
    pivots = []
    rank = 0
    for col in range(width):
        pivot_row = None
        for i in range(rank, len(matrix)):
            if matrix[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        pivot = matrix[rank][col]
        if pivot != 1:
            matrix[rank] = [v / pivot for v in matrix[rank]]
        for i in range(len(matrix)):
            if i != rank and matrix[i][col] != 0:
                factor = matrix[i][col]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(matrix):
            break
    return matrix[:rank], pivots


def reference_nullspace(rows, width):
    """Canonical reduced-echelon nullspace basis, free columns ascending."""
    rref, pivots = reference_rref([list(row) for row in rows], width)
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        vector = [F(0)] * width
        vector[free] = F(1)
        for i, pivot_col in enumerate(pivots):
            vector[pivot_col] = -rref[i][free]
        basis.append(tuple(vector))
    return basis


def transpose(matrix):
    return [list(column) for column in zip(*matrix)]


def zeros_are_shared(vectors):
    return all(v is ZERO for vector in vectors for v in vector if v == 0)


def test_nullspaces_match_sympy_oracle():
    fixtures = [CONST_ZERO, HALF_DIAGONAL, CYCLIC, UNIFORM, SIGNALING, identity(T)]
    for seed in range(6):
        fixtures.append(random_correlation("synchronous", B, T, seed))
        fixtures.append(random_correlation("classical", T, B, seed))
    for p in fixtures:
        m = as_sympy(p)
        right = right_nullspace_basis(p)
        left = left_nullspace_basis(p)
        assert [k.entries for k in right] == reference_nullspace(p.matrix, p.column_count)
        assert [k.entries for k in left] == reference_nullspace(transpose(p.matrix), p.row_count)
        assert zeros_are_shared(k.entries for k in right + left)
        assert len(right) == len(m.nullspace())
        assert len(left) == len(m.T.nullspace())
        vectors_kill_matrix(p, right, "right")
        vectors_kill_matrix(p, left, "left")
        # independence plus the rank-nullity count
        rank = m.rank()
        assert len(right) == p.column_count - rank
        assert len(left) == p.row_count - rank
        if right:
            stacked = sympy.Matrix([[sympy.Rational(v) for v in k.entries] for k in right])
            assert stacked.rank() == len(right)
        if left:
            stacked = sympy.Matrix([[sympy.Rational(v) for v in k.entries] for k in left])
            assert stacked.rank() == len(left)


_LARGE_PRIMES = (1000003, 1000033, 1000037, 2**31 - 1, 2**61 - 1)

_CELLS = st.one_of(
    st.just(F(0)),
    st.integers(-3, 3).map(F),
    st.builds(F, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(F, st.integers(-(10**6), 10**6), st.sampled_from(_LARGE_PRIMES)),
)


@st.composite
def rational_matrices(draw):
    """Small rational matrices, often rank-deficient, with zero rows and columns."""
    height = draw(st.integers(1, 7))
    width = draw(st.integers(1, 7))
    matrix = [[draw(_CELLS) for _ in range(width)] for _ in range(height)]
    if height > 2 and draw(st.booleans()):
        a, b, c = draw(st.permutations(range(height)))[:3]
        s, t = draw(_CELLS), draw(_CELLS)
        matrix[c] = [s * x + t * y for x, y in zip(matrix[a], matrix[b])]
    if draw(st.booleans()):
        matrix[draw(st.integers(0, height - 1))] = [F(0)] * width
    if draw(st.booleans()):
        col = draw(st.integers(0, width - 1))
        for row in matrix:
            row[col] = F(0)
    return matrix


def test_eliminations_leave_their_inputs_as_they_are():
    # The first pivot, a 1 over den 1, takes the in-place path.
    rows = [[1, 2, 0], [1, 3, 1], [2, 4, 0]]
    before = [list(row) for row in rows]
    reduced, pivots, den = morphology._rref(rows)
    assert (reduced, pivots, den) == ([[1, 0, -2], [0, 1, 1]], [0, 1], 1)
    assert rows == before
    assert morphology._right_nullspace([1, 1, 1], rows) == morphology._right_nullspace(
        [1, 1, 1], before
    )
    assert morphology._left_nullspace(rows) == morphology._left_nullspace(before)
    assert rows == before
    for p in (CONST_ZERO, HALF_DIAGONAL, CYCLIC, UNIFORM, SIGNALING):
        lcms, columns = p.lcms, [list(column) for column in p.columns]
        right_nullspace_basis(p)
        left_nullspace_basis(p)
        assert (p.lcms, [list(column) for column in p.columns]) == (lcms, columns)
        assert p.columns == Correlation(p.input_set, p.output_set, p.matrix).columns


def check_both_nullspaces(matrix):
    height, width = len(matrix), len(matrix[0])
    # Each column over its own lcm, as a Correlation keeps its columns.
    lcms, columns = zip(*(common_denominator(column) for column in zip(*matrix)))
    right = morphology._right_nullspace(lcms, columns)
    left = morphology._left_nullspace(columns)
    assert right == reference_nullspace(matrix, width)
    assert left == reference_nullspace(transpose(matrix), height)
    assert zeros_are_shared(right + left)
    rank = sympy.Matrix(matrix).rank()
    assert (len(right), len(left)) == (width - rank, height - rank)


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_integer_nullspaces_equal_the_fraction_reference(matrix):
    check_both_nullspaces(matrix)


def test_integer_nullspaces_with_distinct_large_prime_denominators():
    primes = [sympy.prime(k) for k in range(100000, 100036)]
    rng = random.Random(5)
    full = [
        [F(rng.randrange(-(10**9), 10**9), primes[6 * r + c]) for c in range(6)]
        for r in range(6)
    ]
    assert sympy.Matrix(full).rank() == 6
    check_both_nullspaces(full)
    # rank 3: a 6 x 3 times 3 x 6 product, then negated in one column
    low = [
        [sum((full[r][k] * full[k + 3][c] for k in range(3)), F(0)) for c in range(6)]
        for r in range(6)
    ]
    for row in low:
        row[2] = -row[2]
    assert sympy.Matrix(low).rank() == 3
    check_both_nullspaces(low)
    check_both_nullspaces([row[:4] for row in full])
    check_both_nullspaces(full[:4])


# ---------------------------------------------------------------------------
# Membership prechecks.
# ---------------------------------------------------------------------------


def test_is_member_hierarchy():
    for tag in ALL_TAGS:
        assert is_member(HALF_DIAGONAL, tag)
        assert is_member(identity(B), tag)
    assert is_member(SIGNALING, "S")
    assert not is_member(SIGNALING, "NS")
    assert is_member(CYCLIC, "NS")
    assert not is_member(CYCLIC, "Q")
    assert not is_member(CYCLIC, "HV")
    assert not is_member(UNIFORM, "S")


def test_require_member_raises_with_category():
    with pytest.raises(NotInCategoryError) as info:
        require_member(UNIFORM, "S")
    assert info.value.category == "S"
    with pytest.raises(NotInCategoryError) as info:
        require_member(SIGNALING, CategoryTag.NS)
    assert info.value.category == "NS"
    with pytest.raises(NotInCategoryError):
        require_member(CYCLIC, "HV")


def test_predicates_raise_outside_category():
    with pytest.raises(NotInCategoryError):
        is_monomorphism(UNIFORM, "S")
    with pytest.raises(NotInCategoryError):
        is_epimorphism(SIGNALING, "NS")
    with pytest.raises(NotInCategoryError):
        mono_witness(CYCLIC, "Q")
    with pytest.raises(NotInCategoryError):
        epi_witness(CYCLIC, "HV")
    with pytest.raises(NotInCategoryError):
        is_bimorphism(SIGNALING, "NS")
    with pytest.raises(NotInCategoryError):
        is_section(SIGNALING, "NS")
    with pytest.raises(NotInCategoryError):
        is_retraction(UNIFORM, "S")


# ---------------------------------------------------------------------------
# Monomorphisms and their witnesses.
# ---------------------------------------------------------------------------


def test_identity_is_mono_everywhere():
    for tag in ALL_TAGS:
        assert is_monomorphism(identity(B), tag)
        assert mono_witness(identity(B), tag) is None


def test_constant_is_not_mono():
    for tag in ALL_TAGS:
        assert not is_monomorphism(CONST_ZERO, tag)


def test_mono_witness_all_categories_on_constant():
    for tag in ALL_TAGS:
        witness = mono_witness(CONST_ZERO, tag)
        assert witness is not None
        assert witness.category == tag
        check_witness(CONST_ZERO, witness, "mono")
        assert witness.kernel.entries == (F(-1), F(1), F(0), F(0))
        # kernel really is the difference of the witnesses' effect
        assert witness.q_plus.input_set.labels == ("0", "1")
        again = mono_witness(CONST_ZERO, tag)
        assert again == witness


def test_mono_witness_hv_members_are_classical():
    witness = mono_witness(HALF_DIAGONAL, "HV")
    assert witness is not None
    check_witness(HALF_DIAGONAL, witness, "mono")
    for member in (witness.q_plus, witness.q_minus):
        model = classical_decomposition(member)
        assert model is not None
        assert from_classical_model(model) == member
    assert witness.model_plus is not None
    assert from_classical_model(witness.model_plus) == witness.q_plus
    assert from_classical_model(witness.model_minus) == witness.q_minus


def test_a_q_or_hv_witness_without_models_is_rejected():
    for tag in ("Q", "HV"):
        built = mono_witness(HALF_DIAGONAL, tag)
        bare = morphology.WitnessPair(
            built.side, built.category, built.q_plus, built.q_minus, built.kernel
        )
        with pytest.raises(AssertionError, match="must carry a classical model"):
            morphology._verify_witness(HALF_DIAGONAL, bare)


def test_a_witness_member_outside_its_category_is_rejected():
    # CONST_ZERO sends every correlation to itself, so the compositions agree:
    # only the signaling member keeps the pair out of NS.
    kernel = right_nullspace_basis(CONST_ZERO)[0]
    pair = morphology.WitnessPair("mono", "S", SIGNALING, identity(B), kernel)
    morphology._verify_witness(CONST_ZERO, pair)
    pair = morphology.WitnessPair("mono", "NS", SIGNALING, identity(B), kernel)
    with pytest.raises(AssertionError, match="witness must lie in NS"):
        morphology._verify_witness(CONST_ZERO, pair)


def test_mono_witness_spec_pair_is_valid():
    # the historic example pair: both witnesses constant, kernel vector
    # e(0,0) - e(1,1); distinct, equal compositions, classical
    q_plus = from_function(B, B, {"0": "0", "1": "0"})
    q_minus = from_function(B, B, {"0": "1", "1": "1"})
    assert q_plus != q_minus
    assert compose(CONST_ZERO, q_plus) == compose(CONST_ZERO, q_minus)
    for member in (q_plus, q_minus):
        assert classical_decomposition(member) is not None


def test_mono_witness_ns_category_on_cyclic():
    witness = mono_witness(CYCLIC, "NS")
    assert witness is not None
    check_witness(CYCLIC, witness, "mono")
    for member in (witness.q_plus, witness.q_minus):
        assert is_synchronous(member)
        assert is_nonsignaling(member)


# ---------------------------------------------------------------------------
# Epimorphisms and their witnesses.
# ---------------------------------------------------------------------------


def test_onto_function_is_epi():
    onto = from_function(T, B, {"0": "0", "1": "1", "2": "1"})
    for tag in ALL_TAGS:
        assert is_epimorphism(onto, tag)
        assert epi_witness(onto, tag) is None


def test_non_onto_function_is_not_epi():
    embed = from_function(B, T, {"0": "0", "1": "1"})
    for tag in ALL_TAGS:
        assert not is_epimorphism(embed, tag)


def test_epi_witness_s_kernel_and_shape():
    witness = epi_witness(CONST_ZERO, "S")
    assert witness is not None
    assert witness.kernel.entries == (F(0), F(1), F(0), F(0))
    assert witness.kernel.side == "left"
    check_witness(CONST_ZERO, witness, "epi")
    assert witness.q_plus.output_set.labels == ("0", "1")


def test_epi_witness_s_spec_example():
    # single-input constant with kernel vector e(1,1): the first witness
    # puts all its (1,1)-column mass on output (1,1), the second is constant
    single = finite_set(["0"])
    p = from_function(single, B, {"0": "0"})
    q_plus_entries = [
        ["1", "1", "1", "0"],
        ["0", "0", "0", "0"],
        ["0", "0", "0", "0"],
        ["0", "0", "0", "1"],
    ]
    q_plus = make_correlation(B, B, q_plus_entries)
    q_minus = from_function(B, B, {"0": "0", "1": "0"})
    assert q_plus != q_minus
    assert compose(q_plus, p) == compose(q_minus, p)
    assert is_synchronous(q_plus) and is_synchronous(q_minus)
    # the generated witness uses the first canonical kernel vector instead
    witness = epi_witness(p, "S")
    assert witness is not None
    assert witness.kernel.entries == (F(0), F(1), F(0), F(0))
    check_witness(p, witness, "epi")


def test_epi_witness_ns_padding():
    witness = epi_witness(CONST_ZERO, "NS")
    assert witness is not None
    assert witness.kernel.entries == (F(0), F(1, 4), F(0), F(0))
    check_witness(CONST_ZERO, witness, "epi")
    for member in (witness.q_plus, witness.q_minus):
        assert is_nonsignaling(member)


def test_epi_witness_symmetric_path():
    witness = epi_witness(CONST_ZERO, "HV")
    assert witness is not None
    assert witness.kernel.entries == (F(0), F(1, 10), F(1, 10), F(0))
    assert witness.q_plus.output_set.labels == ("0", "1")
    check_witness(CONST_ZERO, witness, "epi")
    assert witness.model_plus.mu == {
        (0, 0): F(13, 30),
        (0, 1): F(7, 30),
        (1, 0): F(7, 30),
        (1, 1): F(1, 10),
    }
    assert from_classical_model(witness.model_plus) == witness.q_plus
    assert from_classical_model(witness.model_minus) == witness.q_minus
    q_witness = epi_witness(CONST_ZERO, "Q")
    assert q_witness is not None
    check_witness(CONST_ZERO, q_witness, "epi")


SKEW_TABLE = ((0, 1, -1), (-1, 0, 1), (1, -1, 0))


def test_epi_witness_skew_path():
    witness = epi_witness(SKEW_MIX, "HV")
    assert witness is not None
    assert witness.kernel.entries == (F(0), F(-1, 3), F(1, 3), F(0))
    assert witness.q_plus.output_set.labels == ("0", "1", "2")
    check_witness(SKEW_MIX, witness, "epi")
    assert witness.model_plus.mu == {
        (0, 2): F(1, 3),
        (1, 0): F(1, 3),
        (2, 1): F(1, 3),
    }
    assert witness.model_minus.mu == {
        (0, 1): F(1, 3),
        (1, 2): F(1, 3),
        (2, 0): F(1, 3),
    }
    assert sum(witness.model_plus.mu.values()) == 1
    assert sum(witness.model_minus.mu.values()) == 1
    # nine block-difference identities: block (za, zb) of q+ - q- equals
    # the table coefficient times the scaled skew kernel matrix
    v = witness.kernel.as_matrix()
    for za in range(3):
        for zb in range(3):
            for ya in range(2):
                for yb in range(2):
                    difference = witness.q_plus.entry_by_index(
                        za, zb, ya, yb
                    ) - witness.q_minus.entry_by_index(za, zb, ya, yb)
                    assert difference == SKEW_TABLE[za][zb] * v[ya][yb]
    for member in (witness.q_plus, witness.q_minus):
        assert classical_decomposition(member) is not None


def test_epi_witness_ns_on_skew_mix():
    witness = epi_witness(SKEW_MIX, "NS")
    assert witness is not None
    check_witness(SKEW_MIX, witness, "epi")


# ---------------------------------------------------------------------------
# Sections and retractions.
# ---------------------------------------------------------------------------


def test_embedding_is_section_everywhere():
    embed = from_function(B, T, {"0": "0", "1": "1"})
    for tag in ALL_TAGS:
        assert is_section(embed, tag)
        assert is_monomorphism(embed, tag)


def test_cross_dependent_pair_is_section_only_in_s():
    y4 = finite_set(["0", "1", "2", "3"])
    cross = from_deterministic_pair(
        DeterministicPair(B, y4, ((0, 2), (3, 1)), ((0, 3), (2, 1)))
    )
    assert is_section(cross, "S")
    with pytest.raises(NotInCategoryError):
        is_section(cross, "NS")
    q = section_left_inverse(cross)
    assert is_deterministic(q) is not None
    assert compose(q, cross) == identity(B)


def test_half_diagonal_is_not_section():
    assert not is_section(HALF_DIAGONAL, "S")
    assert not is_section(HALF_DIAGONAL, "HV")


def test_section_requires_injectivity():
    squash = from_function(B, B, {"0": "0", "1": "0"})
    for tag in ALL_TAGS:
        assert not is_section(squash, tag)
    with pytest.raises(NotASectionError):
        section_left_inverse(squash)


def test_section_rejects_diagonal_collisions():
    # deterministic, injective on pairs, but an off-diagonal input pair
    # lands on the output diagonal
    y4 = finite_set(["0", "1", "2", "3"])
    pair = DeterministicPair(B, y4, ((0, 2), (3, 1)), ((0, 2), (3, 1)))
    p = from_deterministic_pair(pair)
    assert is_deterministic(p) is not None
    assert not is_section(p, "S")


def test_section_left_inverse_identity_embedding():
    embed = from_function(B, T, {"0": "0", "1": "1"})
    q = section_left_inverse(embed)
    assert compose(q, embed) == identity(B)
    # unmatched output pairs fall back to the first input pair
    assert q.entry("0", "0", "2", "2") == 1
    assert q.entry("0", "0", "0", "2") == 1
    assert q.entry("0", "1", "0", "1") == 1


def test_section_left_inverse_requires_synchronous():
    with pytest.raises(NotASectionError):
        section_left_inverse(UNIFORM)


def test_retraction_examples():
    onto = from_function(T, B, {"0": "0", "1": "1", "2": "1"})
    for tag in ALL_TAGS:
        assert is_retraction(onto, tag)
        assert is_epimorphism(onto, tag)
    q = retraction_right_inverse(onto)
    assert q == from_function(B, T, {"0": "0", "1": "1"})
    assert compose(onto, q) == identity(B)
    assert is_retraction(identity(B), "S")
    assert retraction_right_inverse(identity(B)) == identity(B)


def test_retraction_rejects_non_onto():
    embed = from_function(B, T, {"0": "0", "1": "1"})
    for tag in ALL_TAGS:
        assert not is_retraction(embed, tag)
    with pytest.raises(NotARetractionError):
        retraction_right_inverse(embed)


def test_retraction_needs_diagonal_coverage():
    # onto as a map on pairs, yet no diagonal input hits (1, 1)
    pair = DeterministicPair(
        T,
        B,
        ((0, 1, 1), (0, 0, 0), (0, 0, 0)),
        ((0, 1, 0), (1, 0, 0), (0, 0, 0)),
    )
    p = from_deterministic_pair(pair)
    images = {pair.image_pair(i, j) for i in range(3) for j in range(3)}
    assert len(images) == 4
    diagonal_images = {pair.image_pair(i, i) for i in range(3)}
    assert (1, 1) not in diagonal_images
    assert not is_retraction(p, "S")


def test_retraction_right_inverse_prefers_diagonal_preimages():
    x4 = finite_set(["0", "1", "2", "3"])
    onto = from_function(x4, B, {"0": "1", "1": "0", "2": "0", "3": "1"})
    q = retraction_right_inverse(onto)
    # first diagonal preimages in column order: output 0 -> input 1,
    # output 1 -> input 0
    assert q == from_function(B, x4, {"0": "1", "1": "0"})
    assert compose(onto, q) == identity(B)


def test_sections_are_monos_and_retractions_are_epis():
    import itertools

    for values in itertools.permutations(range(3), 2):
        f = {B.labels[i]: T.labels[values[i]] for i in range(2)}
        p = from_function(B, T, f)
        for tag in ALL_TAGS:
            assert is_section(p, tag)
            assert is_monomorphism(p, tag)
    for values in itertools.product(range(2), repeat=3):
        if set(values) != {0, 1}:
            continue
        f = {T.labels[i]: B.labels[values[i]] for i in range(3)}
        p = from_function(T, B, f)
        for tag in ALL_TAGS:
            assert is_retraction(p, tag)
            assert is_epimorphism(p, tag)


# ---------------------------------------------------------------------------
# Bimorphisms and isomorphisms.
# ---------------------------------------------------------------------------


def test_identity_is_bimorphism_and_isomorphism():
    for tag in ALL_TAGS:
        assert is_bimorphism(identity(B), tag)
        assert is_isomorphism(identity(B), tag)


def test_negation_is_isomorphism():
    negation = from_function(B, B, {"0": "1", "1": "0"})
    assert is_isomorphism(negation, "S")
    assert is_bimorphism(negation, "HV")


def test_player_swap_is_an_isomorphism_of_s():
    # (a, b) -> (b, a): each player answers the other's input
    swap = from_deterministic_pair(DeterministicPair(B, B, ((0, 1), (0, 1)), ((0, 0), (1, 1))))
    assert compose(swap, swap) == identity(B)
    assert is_member(swap, "S") and not is_member(swap, "NS")
    assert is_section(swap, "S") and is_retraction(swap, "S")
    assert is_isomorphism(swap, "S")


def test_isomorphism_is_section_and_retraction():
    for seed in range(40):
        for x, y in ((B, B), (T, T), (B, T)):
            p = random_correlation("deterministic_pair", x, y, seed)
            for tag in CategoryTag:
                if is_member(p, tag):
                    expected = is_section(p, tag) and is_retraction(p, tag)
                    assert is_isomorphism(p, tag) == expected


def test_half_diagonal_is_not_bimorphism():
    assert not is_bimorphism(HALF_DIAGONAL, "S")
    assert not is_isomorphism(HALF_DIAGONAL, "HV")


def test_nonsquare_is_never_bimorphism():
    embed = from_function(B, T, {"0": "0", "1": "1"})
    onto = from_function(T, B, {"0": "0", "1": "1", "2": "1"})
    for tag in ALL_TAGS:
        assert not is_bimorphism(embed, tag)
        assert not is_bimorphism(onto, tag)
        assert not is_isomorphism(embed, tag)


def test_nonsingular_classical_bimorphism_not_isomorphism():
    # 3/4 identity + 1/4 swap: nonsingular but not deterministic
    model = classical_model(B, B, {(0, 1): F(3, 4), (1, 0): F(1, 4)})
    p = from_classical_model(model)
    matrix = as_sympy(p)
    assert matrix.rank() == 4
    for tag in ALL_TAGS:
        assert is_bimorphism(p, tag)
        assert not is_isomorphism(p, tag)


# ---------------------------------------------------------------------------
# Witness serialization.
# ---------------------------------------------------------------------------


def test_witness_json_roundtrip_plain():
    witness = mono_witness(CONST_ZERO, "NS")
    data = witness_to_json_dict(witness)
    assert data["side"] == "mono"
    assert data["category"] == "NS"
    assert witness_from_json_dict(data) == witness


def test_witness_json_roundtrip_with_models():
    witness = epi_witness(SKEW_MIX, "HV")
    data = witness_to_json_dict(witness)
    assert "model_plus" in data and "model_minus" in data
    back = witness_from_json_dict(data)
    assert back == witness
    assert back.model_plus == witness.model_plus


def test_witness_json_errors():
    witness = mono_witness(CONST_ZERO, "S")
    data = witness_to_json_dict(witness)
    with pytest.raises(ParseError):
        witness_from_json_dict(dict(data, side="sideways"))
    with pytest.raises(ParseError):
        witness_from_json_dict(dict(data, category="R"))
    with pytest.raises(ParseError):
        witness_from_json_dict(dict(data, kernel_side="middle"))
    with pytest.raises(ParseError):
        witness_from_json_dict(dict(data, kernel_vector=["1/0"] + data["kernel_vector"][1:]))


def test_witness_json_rejects_bad_kernel_base_set():
    data = witness_to_json_dict(mono_witness(CONST_ZERO, "S"))
    for labels in ([], ["0", "0"]):
        with pytest.raises(ParseError, match="kernel_base_set"):
            witness_from_json_dict(dict(data, kernel_base_set=labels))
    without = {k: v for k, v in data.items() if k != "kernel_base_set"}
    with pytest.raises(ParseError, match="kernel_base_set"):
        witness_from_json_dict(without)


def test_parsed_correlations_are_decided_without_their_fraction_view(monkeypatch, tmp_path):
    inputs = [CONST_ZERO, HALF_DIAGONAL, CYCLIC, SKEW_MIX, SIGNALING, UNIFORM]
    texts = [serialize(p) for p in inputs]

    def unread(p):
        raise AssertionError("the Fraction view of a correlation was read")

    monkeypatch.setattr(Correlation, "matrix", property(unread))
    witnesses = 0
    for text in texts:
        p = deserialize(text)
        classify(p)
        assert compose(identity(p.output_set), p) == p == compose(p, identity(p.input_set))
        assert serialize(p) == text
        for tag in ALL_TAGS:
            if is_member(p, tag):
                for build in (mono_witness, epi_witness):
                    witness = build(p, tag)
                    if witness is not None:
                        witnesses += 1
                        witness_to_json_dict(witness)
    assert witnesses == 30
    # The CLI on files: parse, classify with every witness, compose.
    path = tmp_path / "const.json"
    path.write_text(texts[0] + "\n")
    argv = ["classify", str(path), "--emit-witnesses", str(tmp_path / "w")]
    assert cli.main(argv) == 0
    assert cli.main(["compose", str(path), str(path), "--out", str(tmp_path / "c.json")]) == 0


def test_q_and_hv_share_one_witness_per_side():
    # Q and HV build alike: the HV witness is the Q witness relabelled,
    # equal to one built for HV directly, and one analysis builds it once.
    builders = (
        (mono_witness, morphology._mono_witness),
        (epi_witness, morphology._epi_witness),
    )
    for p in (CONST_ZERO, HALF_DIAGONAL, SKEW_MIX):
        a = analyze(p)
        for build, direct in builders:
            q, hv = build(a, "Q"), build(a, "HV")
            assert (q.category, hv.category) == ("Q", "HV")
            assert hv == direct(analyze(p), CategoryTag.HV)
            assert replace(q, category="HV") == hv
            assert hv.q_plus is q.q_plus and hv.model_minus is q.model_minus
            assert build(a, "Q") is q
