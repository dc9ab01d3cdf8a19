"""Acceptance gate: one test per contract criterion, all exact.

Each test prints a single summary line (visible with ``pytest -s``); under
``pytest -v`` the per-test PASSED/FAILED status is the canonical record.
Every comparison is exact rational arithmetic with zero tolerance.
"""

import collections
import itertools
import random
import time
from fractions import Fraction as F

import pytest
import sympy

from syncgames import (
    ClassicalModel,
    DeterministicPair,
    NotInCategoryError,
    PairDistribution,
    PairWeights,
    analyze,
    atoms_to_intersections,
    boole_vector,
    classical_decomposition,
    classical_model,
    compose,
    deterministic_function,
    epi_witness,
    finite_set,
    from_classical_model,
    from_deterministic_pair,
    from_function,
    from_quantum_model,
    identity,
    intersections_to_atoms,
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
    make_correlation,
    mono_witness,
    pair_weights,
    random_classical_model,
    random_correlation,
    random_quantum_model,
    retraction_right_inverse,
    right_nullspace_basis,
    section_left_inverse,
    triple_inequalities,
    two_input_nonsignaling,
    two_output_classical,
)

from inverse_oracle import inverse_exists
from quantum_oracle import compose_quantum_models

LABELS = ("0", "1", "2")
B2 = finite_set(["0", "1"])


def sized_set(n):
    return finite_set(list(LABELS[:n]))


def as_sympy(p):
    rows = len(p.matrix)
    cols = len(p.matrix[0])
    return sympy.Matrix(
        rows, cols, lambda i, j: sympy.Rational(p.matrix[i][j].numerator, p.matrix[i][j].denominator)
    )


# ---------------------------------------------------------------------------
# criterion 1: composition stays inside each class
# ---------------------------------------------------------------------------


def test_criterion_1_closure_suite():
    started = time.monotonic()
    rng = random.Random(101)

    for i in range(200):
        x, y, z = (sized_set(rng.randint(1, 3)) for _ in range(3))
        inner = random_correlation("synchronous", x, y, seed=i)
        outer = random_correlation("synchronous", y, z, seed=5000 + i)
        assert is_synchronous(compose(outer, inner))

    for i in range(200):
        x, y, z = (sized_set(rng.randint(1, 3)) for _ in range(3))
        inner = random_correlation("classical", x, y, seed=i)
        outer = random_correlation("classical", y, z, seed=5000 + i)
        composed = compose(outer, inner)
        model = classical_decomposition(composed)
        assert model is not None
        assert from_classical_model(model) == composed

    for i in range(200):
        middle = sized_set(rng.randint(2, 3))
        if i % 2 == 0:
            inner = random_correlation("two_input_ns", B2, middle, seed=i)
            outer = random_correlation("two_output_ns", middle, B2, seed=5000 + i)
        else:
            inner = random_correlation("two_output_ns", middle, B2, seed=i)
            outer = random_correlation("two_input_ns", B2, middle, seed=5000 + i)
        composed = compose(outer, inner)
        assert is_synchronous(composed)
        assert is_nonsignaling(composed)

    for i in range(200):
        x, y, z = (sized_set(rng.randint(2, 3)) for _ in range(3))
        inner_model = random_quantum_model(x, y, rng.choice((2, 3)), seed=1000 + i)
        outer_model = random_quantum_model(y, z, rng.choice((2, 3)), seed=2000 + i)
        direct = compose_quantum_models(outer_model, inner_model)
        chained = compose(from_quantum_model(outer_model), from_quantum_model(inner_model))
        assert direct == chained

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"criterion 1 (closure suite, 200 pairs per class): PASS in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: section/retraction census against brute-force inverse search
# ---------------------------------------------------------------------------


def all_tables(nx, ny):
    """Every function X x X -> Y as an nx-by-nx tuple table."""
    for flat in itertools.product(range(ny), repeat=nx * nx):
        yield tuple(tuple(flat[i * nx + j] for j in range(nx)) for i in range(nx))


def search_section(f_a, f_b, nx):
    """Try every possible left-inverse behaviour on the image cells.

    A deterministic left inverse interacts with the pair only through the
    columns indexed by image pairs, so enumerating all value assignments
    on those cells is an exhaustive search; any consistent assignment
    extends freely to a full synchronous pair on the remaining cells.
    """
    cells = []
    targets = []
    for xa in range(nx):
        for xb in range(nx):
            cell = (f_a[xa][xb], f_b[xa][xb])
            if cell in cells:
                targets[cells.index(cell)].append((xa, xb))
            else:
                cells.append(cell)
                targets.append([(xa, xb)])
    options = [(xa, xb) for xa in range(nx) for xb in range(nx)]
    for assignment in itertools.product(options, repeat=len(cells)):
        ok = True
        for cell, value, wanted in zip(cells, assignment, targets):
            if any(value != want for want in wanted):
                ok = False
                break
            if cell[0] == cell[1] and value[0] != value[1]:
                ok = False
                break
        if ok:
            return True
    return False


def search_retraction(f_a, f_b, nx, ny):
    """Cell-by-cell search for a right inverse.

    A deterministic right inverse assigns each output pair an input pair
    that the answer tables send back to it; cells are independent, and
    synchrony only constrains the diagonal cells to diagonal values.
    """
    for ya in range(ny):
        for yb in range(ny):
            found = False
            for xa in range(nx):
                for xb in range(nx):
                    if f_a[xa][xb] != ya or f_b[xa][xb] != yb:
                        continue
                    if ya == yb and xa != xb:
                        continue
                    found = True
            if found is False:
                return False
    return True


def synchronous_pairs(nx, ny):
    x = sized_set(nx)
    y = sized_set(ny)
    for f_a in all_tables(nx, ny):
        for f_b in all_tables(nx, ny):
            if any(f_a[i][i] != f_b[i][i] for i in range(nx)):
                continue
            yield DeterministicPair(x, y, f_a, f_b)


def test_criterion_2_section_retraction_census():
    counts = {}
    for nx, ny in ((2, 2), (2, 3)):
        x = sized_set(nx)
        y = sized_set(ny)
        sections = retractions = members = 0
        for f_a in all_tables(nx, ny):
            for f_b in all_tables(nx, ny):
                pair = DeterministicPair(x, y, f_a, f_b)
                p = from_deterministic_pair(pair)
                # every decider answers the same for p and for its analysis
                a = analyze(p)
                if not is_synchronous(p):
                    for view in (p, a):
                        with pytest.raises(NotInCategoryError):
                            is_section(view, "S")
                        with pytest.raises(NotInCategoryError):
                            is_retraction(view, "S")
                    continue
                members += 1
                section = is_section(p, "S")
                assert section == search_section(f_a, f_b, nx)
                assert is_section(a, "S") == section
                if section:
                    sections += 1
                    left = section_left_inverse(p)
                    assert is_member(left, "S")
                    assert compose(left, p) == identity(x)
                    assert section_left_inverse(a) == left
                retraction = is_retraction(p, "S")
                assert retraction == search_retraction(f_a, f_b, nx, ny)
                assert is_retraction(a, "S") == retraction
                if retraction:
                    retractions += 1
                    right = retraction_right_inverse(p)
                    assert is_member(right, "S")
                    assert compose(p, right) == identity(y)
                    assert retraction_right_inverse(a) == right
                for tag in ("NS", "Q", "HV"):
                    if is_member(a, tag):
                        assert is_section(a, tag) == is_section(p, tag)
                        assert is_retraction(a, tag) == is_retraction(p, tag)
                        assert is_isomorphism(a, tag) == is_isomorphism(p, tag)
        counts[(nx, ny)] = (members, sections, retractions)

    # ground the cell-level search on (2,2) with the fully naive search over
    # every synchronous deterministic candidate inverse
    for pair in synchronous_pairs(2, 2):
        p = from_deterministic_pair(pair)
        naive_section = any(
            compose(from_deterministic_pair(q), p) == identity(p.input_set)
            for q in synchronous_pairs(2, 2)
        )
        assert naive_section == search_section(pair.f_a, pair.f_b, 2)
        naive_retraction = any(
            compose(p, from_deterministic_pair(q)) == identity(p.output_set)
            for q in synchronous_pairs(2, 2)
        )
        assert naive_retraction == search_retraction(pair.f_a, pair.f_b, 2, 2)

    assert counts[(2, 2)][1] > 0 and counts[(2, 2)][2] > 0
    assert counts[(2, 3)][1] > 0
    # four input pairs can never cover nine output pairs
    assert counts[(2, 3)][2] == 0
    print(
        "criterion 2 (census (2,2) and (2,3), "
        f"{counts[(2, 2)][0]}+{counts[(2, 3)][0]} synchronous pairs): PASS"
    )


# Inputs that are not deterministic, checked against an exact inverse search
# in every category (``inverse_oracle``).  The three named inputs are neither
# deterministic pairs nor shared functions, yet each has an inverse.


def labelled(n):
    return finite_set([str(i) for i in range(n)])


def mixed_section():
    # 1/2 (0, 2) + 1/2 (1, 3): left inverse h = (0, 0, 1, 1)
    return from_classical_model(
        classical_model(labelled(2), labelled(4), {(0, 2): F(1, 2), (1, 3): F(1, 2)})
    )


def mixed_retraction():
    # 1/2 (0, 1, 0) + 1/2 (0, 1, 1): right inverse (0, 1)
    return from_classical_model(
        classical_model(labelled(3), labelled(2), {(0, 1, 0): F(1, 2), (0, 1, 1): F(1, 2)})
    )


def signaling_section():
    # deterministic on the diagonal and on (1, 0); (0, 1) answers (2, 3) or
    # (3, 2) with probability 1/2 each, so player A's answer signals
    half = F(1, 2)
    y = labelled(4)
    matrix = [[F(0)] * 4 for _ in range(16)]
    for (ya, yb), (xa, xb), value in (
        ((0, 0), (0, 0), F(1)),
        ((1, 1), (1, 1), F(1)),
        ((0, 1), (1, 0), F(1)),
        ((2, 3), (0, 1), half),
        ((3, 2), (0, 1), half),
    ):
        matrix[y.pair_index(ya, yb)][labelled(2).pair_index(xa, xb)] = value
    return make_correlation(labelled(2), y, matrix)


def _halves(rng, support):
    chosen = rng.sample(support, rng.randint(1, 2))
    return {s: F(1, len(chosen)) for s in chosen}


def sparse_mixture(x, y, rng):
    """A mixture of up to three random shared functions, random weights."""
    functions = [tuple(rng.randrange(y.size) for _ in range(x.size)) for _ in range(3)]
    weights = [rng.randint(0, 2) for _ in functions]
    weights[0] += 1
    mu = {}
    for f, weight in zip(functions, weights):
        mu[f] = mu.get(f, 0) + F(weight, sum(weights))
    return from_classical_model(classical_model(x, y, mu))


def sparse_synchronous(x, y, rng):
    """Each column uniform on one or two random output pairs, the diagonal
    columns on the output diagonal."""
    matrix = [[F(0)] * x.pair_count for _ in range(y.pair_count)]
    for xa, xb in x.pairs():
        support = list(y.pairs()) if xa != xb else [(v, v) for v in range(y.size)]
        for pair, value in _halves(rng, support).items():
            matrix[y.pair_index(*pair)][x.pair_index(xa, xb)] = value
    return make_correlation(x, y, matrix)


def sparse_nonsignaling(x, y, rng):
    """Each input's answer uniform on one or two outputs; each off-diagonal
    column couples two inputs' answers by their product or, on two
    two-point supports, by a random matching; symmetric half of the time."""
    answers = [_halves(rng, list(range(y.size))) for _ in range(x.size)]
    symmetric = rng.random() < 0.5
    columns = {}
    for xa, xb in x.pairs():
        if xa == xb:
            columns[xa, xb] = {(v, v): w for v, w in answers[xa].items()}
        elif symmetric and xa > xb:
            columns[xa, xb] = {(b, a): w for (a, b), w in columns[xb, xa].items()}
        elif len(answers[xa]) == len(answers[xb]) == 2 and rng.random() < 0.5:
            left, right = list(answers[xa]), list(answers[xb])
            rng.shuffle(right)
            columns[xa, xb] = {pair: F(1, 2) for pair in zip(left, right)}
        else:
            columns[xa, xb] = {
                (a, b): u * v for a, u in answers[xa].items() for b, v in answers[xb].items()
            }
    matrix = [[F(0)] * x.pair_count for _ in range(y.pair_count)]
    for (xa, xb), column in columns.items():
        for pair, value in column.items():
            matrix[y.pair_index(*pair)][x.pair_index(xa, xb)] = value
    return make_correlation(x, y, matrix)


NAMED_CASES = {
    "mixed_section": (mixed_section, "left"),
    "mixed_retraction": (mixed_retraction, "right"),
    "signaling_section": (signaling_section, "left"),
}


@pytest.mark.parametrize("name", sorted(NAMED_CASES))
def test_criterion_2_named_inverse(name):
    make, side = NAMED_CASES[name]
    p = make()
    assert is_deterministic(p) is None
    decide, build = (
        (is_section, section_left_inverse)
        if side == "left"
        else (is_retraction, retraction_right_inverse)
    )
    tags = [tag for tag in ("S", "NS", "Q", "HV") if is_member(p, tag)]
    assert tags == (["S"] if name == "signaling_section" else ["S", "NS", "Q", "HV"])
    for tag in tags:
        assert decide(p, tag) and inverse_exists(p, tag, side)
    q = build(p)
    product = compose(q, p) if side == "left" else compose(p, q)
    assert product == identity(p.input_set if side == "left" else p.output_set)
    # the inverse of a nonsignaling input is a shared function, so it is in HV
    assert is_member(q, "HV") == (name != "signaling_section")


def test_criterion_2_oracle_census():
    rng = random.Random(212)
    inputs = [mixed_section(), mixed_retraction(), signaling_section()]
    for nx, ny in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)):
        for make in (sparse_mixture, sparse_synchronous, sparse_nonsignaling):
            for _ in range(6):
                p = make(labelled(nx), labelled(ny), rng)
                if is_deterministic(p) is None:
                    inputs.append(p)
    counts = collections.Counter()
    for p in inputs:
        a = analyze(p)
        for tag in ("S", "NS", "Q", "HV"):
            if not is_member(a, tag):
                continue
            for side, decide, build in (
                ("left", is_section, section_left_inverse),
                ("right", is_retraction, retraction_right_inverse),
            ):
                expected = inverse_exists(p, tag, side)
                assert decide(a, tag) == expected, (tag, side, p)
                counts[tag, side, expected] += 1
                if expected:
                    q = build(a)
                    assert is_member(q, tag)
                    if a.nonsignaling:
                        assert deterministic_function(q) is not None
    for tag in ("S", "NS", "Q", "HV"):
        for side in ("left", "right"):
            assert counts[tag, side, True] > 0 and counts[tag, side, False] > 0, (tag, side)
    print(f"criterion 2 (oracle census, {len(inputs)} inputs): {dict(counts)}: PASS")


# ---------------------------------------------------------------------------
# criterion 3: mono/epi match nullspace emptiness, failures carry witnesses
# ---------------------------------------------------------------------------


def seeded_members(tag, count):
    rng = random.Random(f"criterion-3/{tag}")
    for i in range(count):
        if tag == "S":
            x, y = sized_set(rng.randint(1, 3)), sized_set(rng.randint(1, 3))
            yield random_correlation("synchronous", x, y, seed=i)
        elif tag == "NS":
            middle = sized_set(rng.randint(2, 3))
            if i % 2 == 0:
                yield random_correlation("two_input_ns", B2, middle, seed=i)
            else:
                yield random_correlation("two_output_ns", middle, B2, seed=i)
        elif tag == "Q":
            x, y = sized_set(rng.randint(2, 3)), sized_set(rng.randint(2, 3))
            yield from_quantum_model(random_quantum_model(x, y, rng.choice((2, 3)), seed=i))
        else:
            x, y = sized_set(rng.randint(1, 3)), sized_set(rng.randint(1, 3))
            yield random_correlation("classical", x, y, seed=i)


def verify_witness(p, witness, side, tag):
    assert witness.side == side
    assert witness.category == tag
    assert witness.q_plus != witness.q_minus
    assert is_member(witness.q_plus, tag)
    assert is_member(witness.q_minus, tag)
    if side == "mono":
        assert compose(p, witness.q_plus) == compose(p, witness.q_minus)
    else:
        assert compose(witness.q_plus, p) == compose(witness.q_minus, p)


def test_criterion_3_mono_epi_vs_nullspace():
    mono_failures = epi_failures = 0
    for tag in ("S", "NS", "Q", "HV"):
        for p in seeded_members(tag, 100):
            matrix = as_sympy(p)
            mono = is_monomorphism(p, tag)
            assert mono == (len(matrix.nullspace()) == 0)
            if not mono:
                mono_failures += 1
                verify_witness(p, mono_witness(p, tag), "mono", tag)
            epi = is_epimorphism(p, tag)
            assert epi == (len(matrix.T.nullspace()) == 0)
            if not epi:
                epi_failures += 1
                verify_witness(p, epi_witness(p, tag), "epi", tag)
    assert mono_failures > 0 and epi_failures > 0

    # skew fixture: the antisymmetric kernel route with three-output models
    skew_mix = from_classical_model(
        ClassicalModel(
            B2,
            B2,
            (((0, 0), F(1, 2)), ((0, 1), F(1, 4)), ((1, 0), F(1, 4))),
        )
    )
    witness = epi_witness(skew_mix, "HV")
    assert witness is not None
    verify_witness(skew_mix, witness, "epi", "HV")
    assert witness.kernel.entries == (F(0), F(-1, 3), F(1, 3), F(0))
    assert sum(witness.model_plus.mu.values()) == 1
    assert sum(witness.model_minus.mu.values()) == 1
    table = ((0, 1, -1), (-1, 0, 1), (1, -1, 0))
    kernel_matrix = witness.kernel.as_matrix()
    for za in range(3):
        for zb in range(3):
            for ya in range(2):
                for yb in range(2):
                    difference = witness.q_plus.entry_by_index(
                        za, zb, ya, yb
                    ) - witness.q_minus.entry_by_index(za, zb, ya, yb)
                    assert difference == table[za][zb] * kernel_matrix[ya][yb]
    print(
        "criterion 3 (mono/epi vs nullspace, 100 per category, "
        f"{mono_failures} mono and {epi_failures} epi witnesses verified): PASS"
    )


# ---------------------------------------------------------------------------
# criterion 4: transform roundtrips, reconstruction, sixteen inequalities
# ---------------------------------------------------------------------------


def random_atoms(rng, n):
    size = 1 << n
    raw = [rng.randint(0, 8) for _ in range(size)]
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    return boole_vector(n, "atoms", [F(v, total) for v in raw])


def test_criterion_4_boole_transforms():
    rng = random.Random(404)
    for _ in range(100):
        n = rng.randint(1, 5)
        atoms = random_atoms(rng, n)
        back = intersections_to_atoms(atoms_to_intersections(atoms))
        assert back.feasible
        assert tuple(back.entries) == atoms.entries

    for _ in range(100):
        n = rng.randint(2, 4)
        base = sized_set(3) if n == 3 else finite_set([str(i) for i in range(n)])
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
        raw = {cell: rng.randint(0, 4) for cell in pairs}
        singles = [rng.randint(0, 4) for _ in range(n)]
        rest = rng.randint(0, 4)
        total = sum(raw.values()) + sum(singles) + rest
        if total == 0:
            rest, total = 1, 1
        matrix = [[F(0)] * n for _ in range(n)]
        for (j, k), value in raw.items():
            matrix[j][k] = matrix[k][j] = F(value, total)
        for j in range(n):
            matrix[j][j] = F(singles[j], total) + sum(
                (matrix[j][k] for k in range(n) if k != j), F(0)
            )
        weights = PairWeights(base, tuple(tuple(row) for row in matrix))
        model, correlation = two_output_classical(weights)
        for j in range(n):
            for k in range(n):
                reproduced = sum(
                    (weight for f, weight in model.weights if f[j] == 1 and f[k] == 1),
                    F(0),
                )
                assert reproduced == matrix[j][k]
        assert classical_decomposition(correlation) is not None

    system = triple_inequalities()
    assert len(system) == 16
    one = "1"
    w00, w01, w02, w11, w12, w22 = (
        "w(x0,x0)",
        "w(x0,x1)",
        "w(x0,x2)",
        "w(x1,x1)",
        "w(x1,x2)",
        "w(x2,x2)",
    )
    lowers = [
        {},
        {w01: F(1), w02: F(1), w00: F(-1)},
        {w01: F(1), w12: F(1), w11: F(-1)},
        {w02: F(1), w12: F(1), w22: F(-1)},
    ]
    uppers = [
        {one: F(1), w00: F(-1), w11: F(-1), w22: F(-1), w01: F(1), w02: F(1), w12: F(1)},
        {w01: F(1)},
        {w02: F(1)},
        {w12: F(1)},
    ]
    expected = set()
    for low in lowers:
        for up in uppers:
            form = {}
            for key, value in up.items():
                form[key] = form.get(key, F(0)) + value
            for key, value in low.items():
                form[key] = form.get(key, F(0)) - value
            expected.add(tuple(sorted((k, v) for k, v in form.items() if v != 0)))
    got = {tuple(sorted(iq.normal_form().items())) for iq in system.inequalities}
    assert got == expected
    print("criterion 4 (transform roundtrips, reconstruction, 16 inequalities): PASS")


# ---------------------------------------------------------------------------
# criterion 5: hierarchy sanity
# ---------------------------------------------------------------------------


def test_criterion_5_hierarchy_sanity():
    rng = random.Random(505)
    for i in range(50):
        x, y = sized_set(rng.randint(1, 3)), sized_set(rng.randint(1, 3))
        p = from_classical_model(random_classical_model(x, y, seed=i))
        assert is_synchronous(p)
        assert is_symmetric(p)
        assert is_nonsignaling(p)

    for i in range(20):
        x, y = sized_set(rng.randint(2, 3)), sized_set(rng.randint(2, 3))
        p = from_quantum_model(random_quantum_model(x, y, rng.choice((2, 3)), seed=i))
        assert is_synchronous(p)
        assert is_symmetric(p)
        assert is_nonsignaling(p)

    cyclic_rows = tuple(
        tuple(F(v) for v in row)
        for row in (("0", "1/3", "0"), ("0", "0", "1/3"), ("1/3", "0", "0"))
    )
    cyclic = PairDistribution(sized_set(3), cyclic_rows)
    asymmetric = two_input_nonsignaling(cyclic, cyclic)
    assert is_synchronous(asymmetric)
    assert is_nonsignaling(asymmetric)
    assert not is_symmetric(asymmetric)
    assert classical_decomposition(asymmetric) is None
    print("criterion 5 (hierarchy sanity, asymmetric fixture separates HV from NS): PASS")


# ---------------------------------------------------------------------------
# criterion 6: bimorphisms
# ---------------------------------------------------------------------------


def mixed_toward_identity(model, t):
    base = model.input_set
    identity_key = tuple(range(base.size))
    weights = {}
    for key, value in model.weights:
        weights[key] = weights.get(key, F(0)) + t * value
    weights[identity_key] = weights.get(identity_key, F(0)) + (1 - t)
    return ClassicalModel(base, base, tuple(weights.items()))


def test_criterion_6_bimorphism():
    rng = random.Random(606)
    built = 0
    seed = 0
    while built < 20:
        x = sized_set(rng.randint(2, 3))
        model = random_classical_model(x, x, seed=seed)
        seed += 1
        p = from_classical_model(model)
        t = F(1)
        while right_nullspace_basis(p):
            t = t / 2
            p = from_classical_model(mixed_toward_identity(model, t))
        assert as_sympy(p).det() != 0
        for tag in ("S", "NS", "Q", "HV"):
            assert is_bimorphism(p, tag)
            fn = deterministic_function(p)
            bijection = fn is not None and sorted(fn) == list(range(x.size))
            assert is_isomorphism(p, tag) == bijection
        built += 1

    negation = from_function(B2, B2, {"0": "1", "1": "0"})
    assert is_isomorphism(negation, "HV")
    assert is_bimorphism(negation, "HV")

    for i in range(5):
        wide = random_correlation("classical", sized_set(2), sized_set(3), seed=i)
        tall = random_correlation("classical", sized_set(3), sized_set(2), seed=i)
        for tag in ("S", "NS", "Q", "HV"):
            assert not is_bimorphism(wide, tag)
            assert not is_bimorphism(tall, tag)
            assert not is_isomorphism(wide, tag)
    print("criterion 6 (20 nonsingular classical bimorphisms, shape rules): PASS")
