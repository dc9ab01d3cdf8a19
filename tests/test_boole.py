import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgames import (
    ATOMS,
    INTERSECTIONS,
    AtomReconstruction,
    BooleVector,
    NotNormalizedAtEmptySetError,
    OutOfRangeError,
    atoms_to_intersections,
    boole_vector,
    classical_model,
    epi_witness,
    finite_set,
    from_classical_model,
    intersections_to_atoms,
    measure_to_atoms,
    pair_bounds,
    pair_weights,
    pairwise_intersection_vector,
    triple_bounds,
    triple_inequalities,
)
from syncgames import cli
from syncgames.corrcore import ZERO
from syncgames.errors import (
    NotSymmetricError,
    UnsupportedShapeError,
    WeightsNotNormalizedError,
)


def popcount_subsets(j):
    k = j
    while True:
        yield k
        if k == 0:
            return
        k = (k - 1) & j


def mobius_intersections(entries, n):
    """Independent oracle: w_j = sum of atoms over supersets of j."""
    out = []
    for j in range(1 << n):
        total = F(0)
        for k in range(1 << n):
            if k & j == j:
                total += entries[k]
        out.append(total)
    return out


def random_atoms(draw, n):
    weights = draw(
        st.lists(
            st.integers(min_value=0, max_value=12),
            min_size=1 << n,
            max_size=1 << n,
        ).filter(lambda ws: sum(ws) > 0)
    )
    total = sum(weights)
    return [F(w, total) for w in weights]


@st.composite
def atom_vectors(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    return n, random_atoms(draw, n)


def test_boole_vector_atoms_validation():
    boole_vector(1, ATOMS, ["1/2", "1/2"])
    with pytest.raises(WeightsNotNormalizedError):
        boole_vector(1, ATOMS, ["1/2", "1/4"])
    with pytest.raises(WeightsNotNormalizedError):
        boole_vector(1, ATOMS, ["3/2", "-1/2"])


def test_boole_vector_intersections_validation():
    boole_vector(1, INTERSECTIONS, ["1", "1/2"])
    with pytest.raises(NotNormalizedAtEmptySetError):
        boole_vector(1, INTERSECTIONS, ["1/2", "1/2"])
    with pytest.raises(OutOfRangeError):
        boole_vector(1, INTERSECTIONS, ["1", "-1/2"])


def test_measure_to_atoms_uniform_and_point():
    mu1 = {(0,): F(1, 2), (1,): F(1, 2)}
    assert measure_to_atoms(mu1, 1).entries == (F(1, 2), F(1, 2))
    mu2 = {
        (0, 0): F(1, 4),
        (1, 0): F(1, 4),
        (0, 1): F(1, 4),
        (1, 1): F(1, 4),
    }
    assert measure_to_atoms(mu2, 2).entries == (F(1, 4),) * 4
    # point mass on f=(1,1) lands on the bit index 3
    point = measure_to_atoms({(1, 1): F(1)}, 2)
    assert point.entries == (F(0), F(0), F(0), F(1))


def test_atoms_to_intersections_uniform_n2():
    p = boole_vector(2, ATOMS, ["1/4"] * 4)
    w = atoms_to_intersections(p)
    assert w.entries == (F(1), F(1, 2), F(1, 2), F(1, 4))
    assert w.interpretation == INTERSECTIONS


def test_atoms_to_intersections_n1():
    p = boole_vector(1, ATOMS, ["1/2", "1/2"])
    assert atoms_to_intersections(p).entries == (F(1), F(1, 2))


def test_point_atom_gives_subset_indicator():
    j = 5  # bits {0, 2}
    entries = [F(0)] * 8
    entries[j] = F(1)
    w = atoms_to_intersections(boole_vector(3, ATOMS, entries))
    for k in range(8):
        assert w.entries[k] == (F(1) if k & j == k else F(0))


def test_intersections_to_atoms_uniform():
    w = boole_vector(2, INTERSECTIONS, ["1", "1/2", "1/2", "1/4"])
    rec = intersections_to_atoms(w)
    assert rec.feasible
    assert rec.entries == (F(1, 4),) * 4
    assert rec.atoms().interpretation == ATOMS


def test_intersections_to_atoms_infeasible_certificate():
    w = boole_vector(2, INTERSECTIONS, ["1", "3/4", "3/4", "1/4"])
    rec = intersections_to_atoms(w)
    assert not rec.feasible
    assert rec.entries[0] == F(-1, 4)
    assert 0 in rec.negative_indices
    with pytest.raises(WeightsNotNormalizedError):
        rec.atoms()


@settings(max_examples=60, deadline=None)
@given(atom_vectors())
def test_transform_matches_mobius_oracle(data):
    n, entries = data
    w = atoms_to_intersections(boole_vector(n, ATOMS, entries))
    assert list(w.entries) == mobius_intersections(entries, n)


@settings(max_examples=60, deadline=None)
@given(atom_vectors())
def test_transform_roundtrip(data):
    n, entries = data
    p = boole_vector(n, ATOMS, entries)
    rec = intersections_to_atoms(atoms_to_intersections(p))
    assert rec.feasible
    assert rec.entries == p.entries


def test_pair_bounds_values():
    assert pair_bounds(F(7, 10), F(6, 10)) == (F(3, 10), F(6, 10))
    assert pair_bounds(1, F(1, 3)) == (F(1, 3), F(1, 3))
    assert pair_bounds(0, F(1, 3)) == (F(0), F(0))


def test_pair_bounds_range_check():
    with pytest.raises(OutOfRangeError):
        pair_bounds(F(3, 2), F(1, 2))
    with pytest.raises(OutOfRangeError):
        pair_bounds(F(1, 2), F(-1, 2))


def test_pairwise_intersection_vector_placement():
    s2 = finite_set(["x0", "x1"])
    w = pair_weights(s2, [["1/2", "1/4"], ["1/4", "1/2"]])
    vec = pairwise_intersection_vector(w)
    assert vec.entries == (F(1), F(1, 2), F(1, 2), F(1, 4))

    s3 = finite_set(["x0", "x1", "x2"])
    zero = pair_weights(s3, [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    vec3 = pairwise_intersection_vector(zero)
    assert vec3.entries[0] == F(1)
    assert all(v == 0 for v in vec3.entries[1:])

    some = pair_weights(
        s3,
        [["1/2", "1/4", "1/4"], ["1/4", "1/2", "1/4"], ["1/4", "1/4", "1/2"]],
    )
    v = pairwise_intersection_vector(some)
    # weight-3 index carries no information from pairwise weights
    assert v.entries[7] == 0
    assert v.entries[1 << 1] == F(1, 2)
    assert v.entries[(1 << 0) + (1 << 2)] == F(1, 4)


def test_pairwise_intersection_vector_requires_symmetry():
    s = finite_set(["x0", "x1"])
    with pytest.raises(NotSymmetricError):
        pairwise_intersection_vector(pair_weights(s, [["1/2", "1/4"], ["0", "1/2"]]))


def test_triple_bounds_fixture():
    s = finite_set(["x0", "x1", "x2"])
    w = pair_weights(
        s,
        [["1/2", "1/4", "1/4"], ["1/4", "1/2", "1/4"], ["1/4", "1/4", "1/2"]],
    )
    bounds = triple_bounds(w)
    assert set(bounds.lowers) == {F(0)}
    assert set(bounds.uppers) == {F(1, 4)}
    assert bounds.feasible
    assert bounds.interval() == (F(0), F(1, 4))


def test_triple_bounds_zero_weights_force_zero():
    s = finite_set(["x0", "x1", "x2"])
    bounds = triple_bounds(pair_weights(s, [[0, 0, 0], [0, 0, 0], [0, 0, 0]]))
    assert bounds.interval() == (F(0), F(0))
    assert bounds.feasible


def test_triple_bounds_infeasible():
    s = finite_set(["x0", "x1", "x2"])
    w = pair_weights(
        s,
        [["1/2", "0", "0"], ["0", "1/2", "0"], ["0", "0", "1/2"]],
    )
    bounds = triple_bounds(w)
    assert max(bounds.lowers) == F(0)
    assert min(bounds.uppers) == F(-1, 2)
    assert not bounds.feasible


def test_triple_bounds_shape_and_symmetry_checks():
    s2 = finite_set(["x0", "x1"])
    with pytest.raises(UnsupportedShapeError):
        triple_bounds(pair_weights(s2, [["1/2", "1/4"], ["1/4", "1/2"]]))
    s3 = finite_set(["x0", "x1", "x2"])
    with pytest.raises(NotSymmetricError):
        triple_bounds(
            pair_weights(s3, [["1/2", "1/4", "0"], ["0", "1/2", "0"], ["0", "0", "1/2"]])
        )


def test_triple_bounds_vs_reconstruction_search():
    # feasibility agrees with existence of a nonnegative 8-atom completion
    import itertools

    s = finite_set(["x0", "x1", "x2"])
    grid = [F(k, 4) for k in range(3)]
    cases = 0
    for d0, d1, d2, o01, o02, o12 in itertools.product(grid, repeat=6):
        w = pair_weights(
            s, [[d0, o01, o02], [o01, d1, o12], [o02, o12, d2]]
        )
        bounds = triple_bounds(w)
        lo, hi = bounds.interval()
        # brute force: does any w7 on a fine grid give nonnegative atoms?
        found = None
        candidates = {lo, hi} if bounds.feasible else set()
        candidates.update(F(k, 8) for k in range(9))
        for w7 in sorted(candidates):
            entries = [
                F(1),
                d0,
                d1,
                o01,
                d2,
                o02,
                o12,
                w7,
            ]
            vec_ok = all(v >= 0 for v in entries)
            if not vec_ok:
                continue
            rec = intersections_to_atoms(boole_vector(3, INTERSECTIONS, entries))
            if rec.feasible:
                found = w7
                break
        if bounds.feasible:
            # the interval endpoints themselves must work when in range
            if lo >= 0:
                assert found is not None
                assert lo <= found <= hi
        else:
            assert found is None
        cases += 1
    assert cases == 3**6


def test_sixteen_inequalities_distinct_and_counted():
    system = triple_inequalities()
    assert len(system) == 16
    normal_forms = {tuple(sorted(iq.normal_form().items())) for iq in system.inequalities}
    assert len(normal_forms) == 16


def test_inequality_fixture_lines():
    system = triple_inequalities()
    lines = system.text_lines()
    assert len(lines) == 16
    assert "0 <= +1*w(x0,x1)" in lines
    cross = (
        "-1*w(x0,x0) +1*w(x0,x1) +1*w(x0,x2) <= "
        "+1 -1*w(x0,x0) +1*w(x0,x1) +1*w(x0,x2) -1*w(x1,x1) +1*w(x1,x2) -1*w(x2,x2)"
    )
    assert cross in lines


def test_inequality_coefficient_fixture():
    """Coefficient sets for all 16 inequalities, transcribed by hand.

    Lower bounds: 0, and the three (w_jk + w_jl - w_jj) combinations.
    Upper bounds: the full inclusion-exclusion bound and the three
    pairwise weights.  Each inequality is lower_i <= upper_j in normal
    form upper - lower >= 0.
    """
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
    got = {
        tuple(sorted(iq.normal_form().items()))
        for iq in triple_inequalities().inequalities
    }
    assert got == expected


def test_inequality_json_shape():
    data = triple_inequalities().to_json_list()
    assert len(data) == 16
    for item in data:
        assert item["sense"] == ">= 0"
        assert "text" in item and "<=" in item["text"]


# ---------------------------------------------------------------------------
# The integer passes and checks against the Fraction code they replaced.
# ---------------------------------------------------------------------------

_LARGE_PRIMES = (3, 7919, 1000003, 2**31 - 1, 2**61 - 1)


def reference_passes(entries, n, sign):
    """One pass per event on ``Fraction``s: ``v[j] += sign * v[j | 2**l]``."""
    values = list(entries)
    for l in range(n):
        bit = 1 << l
        for j in range(1 << n):
            if not j & bit:
                values[j] = values[j] + sign * values[j | bit]
    return values


def reference_error(interpretation, entries):
    """The first error the ``Fraction`` validation of a Boole vector raises."""
    if interpretation == ATOMS:
        total = F(0)
        for j, value in enumerate(entries):
            if value < 0:
                return WeightsNotNormalizedError, f"atom {j} has negative mass {value}"
            total += value
        if total != 1:
            return WeightsNotNormalizedError, f"atoms sum to {total}, expected 1"
        return None
    if entries[0] != 1:
        return (
            NotNormalizedAtEmptySetError,
            f"empty intersection has probability {entries[0]}, expected 1",
        )
    for j, value in enumerate(entries):
        if value < 0:
            return OutOfRangeError, f"intersection {j} has negative probability {value}"
    return None


def prime_rationals(low, high):
    """Rationals ``k / q`` with ``k`` in ``[low, high]`` and ``q`` a large prime."""
    return st.builds(F, st.integers(low, high), st.sampled_from(_LARGE_PRIMES))


@st.composite
def prime_atom_vectors(draw):
    n = draw(st.integers(0, 6))
    weight = st.one_of(st.just(F(0)), prime_rationals(1, 10**6))
    raw = draw(st.lists(weight, min_size=1 << n, max_size=1 << n))
    total = sum(raw, F(0))
    if total == 0:
        raw[0] = total = F(1)
    return BooleVector(n, ATOMS, tuple(v / total for v in raw))


@st.composite
def prime_intersection_vectors(draw):
    n = draw(st.integers(0, 6))
    value = st.one_of(st.just(F(0)), prime_rationals(1, 10**6), st.just(F(1)))
    rest = draw(st.lists(value, min_size=(1 << n) - 1, max_size=(1 << n) - 1))
    return BooleVector(n, INTERSECTIONS, (F(1), *rest))


@settings(max_examples=80, deadline=None)
@given(prime_atom_vectors())
def test_integer_atoms_to_intersections_equals_the_fraction_passes(p):
    w = atoms_to_intersections(p)
    assert list(w.entries) == reference_passes(p.entries, p.n, 1)
    assert all(type(v) is F for v in w.entries)
    assert all(v is ZERO for v in w.entries if v == 0)


@settings(max_examples=80, deadline=None)
@given(prime_intersection_vectors())
def test_integer_intersections_to_atoms_equals_the_fraction_passes(w):
    rec = intersections_to_atoms(w)
    expected = reference_passes(w.entries, w.n, -1)
    assert list(rec.entries) == expected
    assert rec.negative_indices == tuple(j for j, v in enumerate(expected) if v < 0)
    assert rec.feasible == (not rec.negative_indices)
    assert all(type(v) is F for v in rec.entries)
    assert all(v is ZERO for v in rec.entries if v == 0)


def test_reconstruction_census_has_both_verdicts():
    # the same passes on fixed inputs: one infeasible at a large prime
    # denominator, one feasible with zero atoms
    q = 2**61 - 1
    w = BooleVector(2, INTERSECTIONS, (F(1), F(q - 1, q), F(q - 1, q), F(1, q)))
    rec = intersections_to_atoms(w)
    assert rec.negative_indices == (0,) and rec.entries[0] == F(-q + 3, q)
    feasible = intersections_to_atoms(atoms_to_intersections(
        BooleVector(2, ATOMS, (ZERO, F(1, q), ZERO, F(q - 1, q)))
    ))
    assert feasible.feasible
    assert feasible.entries[0] is ZERO and feasible.entries[2] is ZERO


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([ATOMS, INTERSECTIONS]),
    st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.one_of(prime_rationals(-3, 3), st.just(F(1)), st.just(F(0))),
            min_size=1 << n,
            max_size=1 << n,
        )
    ),
)
def test_boole_vector_checks_raise_the_fraction_reference_error(interpretation, entries):
    n = len(entries).bit_length() - 1
    expected = reference_error(interpretation, entries)
    try:
        BooleVector(n, interpretation, tuple(entries))
    except (WeightsNotNormalizedError, NotNormalizedAtEmptySetError, OutOfRangeError) as exc:
        assert (type(exc), str(exc)) == expected
    else:
        assert expected is None


def test_boole_paths_never_read_the_fraction_view(monkeypatch, tmp_path):
    def unread(vector):
        raise AssertionError("the Fraction view of a Boole vector was read")

    monkeypatch.setattr(BooleVector, "entries", property(unread))
    monkeypatch.setattr(AtomReconstruction, "entries", property(unread))

    def write(name, interpretation, entries):
        path = tmp_path / name
        path.write_text(json.dumps({"n": 2, "interpretation": interpretation, "entries": entries}))
        return str(path)

    def boole(*argv):
        out = str(tmp_path / "out.json")
        assert cli.main(["boole", *argv, "--out", out]) == 0
        return json.loads(open(out).read())

    atoms = write("atoms.json", ATOMS, ["2/8", "1/4", "0", "1/2"])
    w = boole("transform", atoms, "--direction", "p2w")
    assert w["entries"] == ["1", "3/4", "1/2", "1/2"]
    mid = write("w.json", INTERSECTIONS, w["entries"])
    back = boole("transform", mid, "--direction", "w2p")
    assert back["entries"] == ["1/4", "1/4", "0", "1/2"] and back["feasible"]
    assert boole("reconstruct", mid)["atoms"]["entries"] == back["entries"]
    infeasible = write("bad.json", INTERSECTIONS, ["1", "3/4", "3/4", "1/4"])
    assert boole("reconstruct", infeasible)["entries"] == ["-1/4", "1/2", "1/2", "1/4"]

    p = measure_to_atoms({(0, 1): F(1, 3), (1, 1): "2/3"}, 2)
    assert (p.denominator, p.numerators) == (3, (0, 0, 1, 2))
    s2 = finite_set(["x0", "x1"])
    v = pairwise_intersection_vector(pair_weights(s2, [["1/2", "1/4"], ["1/4", "1/2"]]))
    assert (v.denominator, v.numerators) == (4, (4, 2, 2, 1))
    # The HV epi witness of this input is built by two_output_classical.
    half_diagonal = from_classical_model(
        classical_model(s2, s2, {(0, 0): F(1, 2), (1, 1): F(1, 2)})
    )
    witness = epi_witness(half_diagonal, "HV")
    assert from_classical_model(witness.model_plus) == witness.q_plus


def test_the_integer_form_is_canonical_and_the_view_is_built_once():
    v = boole_vector(2, ATOMS, ["2/8", "3/12", 0, F(1, 2)])
    assert (v.denominator, v.numerators) == (4, (1, 1, 0, 2))
    assert v == BooleVector(2, ATOMS, (F(1, 4), F(1, 4), ZERO, F(1, 2)))
    assert hash(v) == hash(BooleVector(2, ATOMS, (F(1, 4), F(1, 4), ZERO, F(1, 2))))
    assert v.entries is v.entries and v.entries[2] is ZERO
    assert repr(v) == (
        "BooleVector(n=2, interpretation='atoms', entries=(Fraction(1, 4), "
        "Fraction(1, 4), Fraction(0, 1), Fraction(1, 2)))"
    )
    rec = intersections_to_atoms(atoms_to_intersections(v))
    assert (rec.denominator, rec.numerators) == (4, (1, 1, 0, 2))
    assert rec.atoms() == v
