import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncgames import (
    ColumnSumNotOneError,
    Correlation,
    FiniteSet,
    KernelVector,
    NegativeEntryError,
    ParseError,
    ShapeMismatchError,
    UnknownLabelError,
    as_rational,
    deserialize,
    finite_set,
    format_rational,
    from_json_dict,
    identity,
    make_correlation,
    pair_distribution,
    pair_weights,
    serialize,
    to_json_dict,
)
from syncgames import cli
from syncgames.corrcore import DeterministicPair, WeightsNotNormalizedError, _parse_json


def test_as_rational_accepts_int_fraction_string():
    assert as_rational(3) == F(3)
    assert as_rational(F(2, 4)) == F(1, 2)
    assert as_rational("2/4") == F(1, 2)
    assert as_rational("-7") == F(-7)


def test_as_rational_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        as_rational(True)
    with pytest.raises(TypeError):
        as_rational(None)


def test_as_rational_reads_only_n_and_n_over_d():
    assert as_rational("+3") == F(3)
    assert as_rational("-0/5") == F(0)
    assert as_rational("007/14") == F(1, 2)
    rejected = ("0.5", "1e5", "1E-2", " 1", "1/2 ", "1 / 2", "1/-2", "1/2/3", "", "/2", "\u0661")
    for text in rejected:
        with pytest.raises(ValueError):
            as_rational(text)


def test_as_rational_reads_the_groups_like_fraction_reads_the_text():
    # Fraction(text) is the reference on text of the grammar: same value,
    # or the same error type and message
    five_thousand = "7" * 5000
    cases = ("+3/6", "-0", "007/010", "1/0", "-4/0", five_thousand, "1/" + five_thousand)
    for text in cases:
        try:
            expected = F(text)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)) as info:
                as_rational(text)
            assert str(info.value) == str(exc)
        else:
            got = as_rational(text)
            assert type(got) is F and got == expected
    assert as_rational("+3/6") == F(1, 2)
    assert as_rational("-0") == 0
    assert as_rational("007/010") == F(7, 10)
    with pytest.raises(ZeroDivisionError):
        as_rational("1/0")
    with pytest.raises(ValueError, match="4300 digits"):
        as_rational(five_thousand)


def test_format_rational_lowest_terms():
    assert format_rational(F(2, 4)) == "1/2"
    assert format_rational(F(3)) == "3"


def test_finite_set_basics():
    s = finite_set(["a", "b", "c"])
    assert s.size == 3
    assert s.pair_count == 9
    assert s.index("b") == 1
    assert s.pair_index(1, 2) == 5
    assert s.pair_of(5) == (1, 2)
    assert list(s.pairs())[:3] == [(0, 0), (0, 1), (0, 2)]


def test_finite_set_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        finite_set(["a", "a"])
    with pytest.raises(ValueError):
        finite_set([])


def test_unknown_label():
    s = finite_set(["a", "b"])
    with pytest.raises(UnknownLabelError):
        s.index("c")


def test_singleton_identity():
    # the only stochastic 1x1 matrix
    p = make_correlation(finite_set(["0"]), finite_set(["0"]), [["1"]])
    assert p.matrix == ((F(1),),)
    assert p == identity(finite_set(["0"]))


def test_constant_correlation_row_of_ones():
    X = finite_set(["0", "1"])
    Y = finite_set(["0"])
    p = make_correlation(X, Y, [[1, 1, 1, 1]])
    assert p.entry("0", "0", "0", "1") == 1


def test_column_sum_error_carries_column_and_sum():
    X = finite_set(["0"])
    Y = finite_set(["0", "1"])
    with pytest.raises(ColumnSumNotOneError) as info:
        make_correlation(X, Y, [["1/2"], ["1/3"], ["0"], ["0"]])
    assert info.value.column == 0
    assert info.value.actual == F(5, 6)


def test_a_correlation_keeps_its_integer_columns():
    X = Y = finite_set(["0", "1"])
    entries = [
        ["1/2", "1/6", "1", "1/4"],
        ["1/3", "1/3", "0", "1/4"],
        ["0", "1/2", "0", "1/4"],
        ["1/6", "0", "0", "1/4"],
    ]
    p = make_correlation(X, Y, entries)
    assert p.lcms == (6, 6, 1, 4)
    assert p.columns == ((3, 2, 0, 1), (1, 2, 3, 0), (1, 0, 0, 0), (1, 1, 1, 1))
    for c, (d, nums) in enumerate(zip(p.lcms, p.columns)):
        assert [F(v, d) for v in nums] == list(p.column(c))


def test_equality_hash_and_repr_follow_the_canonical_integer_columns():
    X = finite_set(["0"])
    Y = finite_set(["0", "1"])
    p = make_correlation(X, Y, [["1/2"], ["1/2"], ["0"], ["0"]])
    q = make_correlation(X, Y, [["2/4"], [F(1, 2)], [0], ["0"]])
    over_six = Correlation._from_columns(X, Y, [6], [[3, 3, 0, 0]])
    for other in (q, over_six):
        assert (other.lcms, other.columns) == (p.lcms, p.columns) == ((2,), ((1, 1, 0, 0),))
        assert other == p and hash(other) == hash(p) and repr(other) == repr(p)
    half, zero = F(1, 2), F(0)
    assert repr(p) == (
        f"Correlation(input_set={X!r}, output_set={Y!r}, "
        f"matrix={((half,), (half,), (zero,), (zero,))!r})"
    )
    assert p != make_correlation(X, Y, [["1/2"], ["0"], ["1/2"], ["0"]])
    assert p != make_correlation(X, finite_set(["1", "0"]), [["1/2"], ["1/2"], ["0"], ["0"]])


def test_the_fraction_view_is_built_once_from_the_integers():
    p = deserialize(serialize(identity(finite_set(["0", "1"]))))
    view = p.matrix
    assert view is p.matrix
    assert view == tuple(tuple(F(int(r == c)) for c in range(4)) for r in range(4))
    assert all(type(v) is F for row in view for v in row)


def test_column_sum_error_names_a_later_column():
    X = finite_set(["0", "1"])
    Y = finite_set(["0"])
    with pytest.raises(ColumnSumNotOneError) as info:
        make_correlation(X, Y, [["1", "7/8", "9/8", "1"]])
    assert info.value.column == 1
    assert info.value.actual == F(7, 8)
    assert str(info.value) == "column 1 sums to 7/8, expected 1"


def test_negative_entry_error():
    X = finite_set(["0"])
    Y = finite_set(["0", "1"])
    with pytest.raises(NegativeEntryError):
        make_correlation(X, Y, [["-1/2"], ["1/2"], ["1"], ["0"]])


def test_shape_mismatch():
    X = finite_set(["0", "1"])
    Y = finite_set(["0"])
    with pytest.raises(ShapeMismatchError):
        make_correlation(X, Y, [[1, 1]])
    ragged = [["1", "0", "0", "0"], ["0", "1", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    with pytest.raises(ShapeMismatchError, match="row 1 has 3"):
        make_correlation(X, X, ragged)
    with pytest.raises(ShapeMismatchError, match="expected 4 rows"):
        make_correlation(X, X, ragged[:1] + ragged[2:])


def test_rows_may_be_iterators():
    rows = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    B = finite_set(["0", "1"])
    assert make_correlation(B, B, [iter(row) for row in rows]) == identity(B)
    assert make_correlation(B, B, iter(rows)) == identity(B)


def test_identity_matrix_structure():
    X = finite_set(["0", "1"])
    p = identity(X)
    assert p.entry("0", "1", "0", "1") == 1
    assert p.entry("0", "1", "1", "0") == 0
    for r in range(4):
        for c in range(4):
            assert p.matrix[r][c] == (1 if r == c else 0)


def test_entry_by_index_matches_entry():
    X = finite_set(["x0", "x1"])
    Y = finite_set(["y0", "y1"])
    entries = [
        [1, 0, 0, 1],
        [0, "1/2", "1/2", 0],
        [0, "1/2", "1/2", 0],
        [0, 0, 0, 0],
    ]
    p = make_correlation(X, Y, entries)
    assert p.entry("y0", "y1", "x0", "x1") == F(1, 2)
    assert p.entry_by_index(0, 1, 0, 1) == F(1, 2)


def test_serialize_roundtrip_identity():
    p = identity(finite_set(["0", "1"]))
    text = serialize(p)
    assert deserialize(text) == p


def test_deserialize_normalizes_rationals():
    text = """
    {"input_set": ["0"], "output_set": ["0", "1"],
     "entries": [["2/4"], ["2/4"], ["0"], ["0"]]}
    """
    p = deserialize(text)
    assert p.matrix[0][0] == F(1, 2)
    # canonical lowest terms on write
    assert '"1/2"' in serialize(p)


def test_deserialize_negative_entry_passes_through():
    text = '{"input_set": ["0"], "output_set": ["0", "1"], "entries": [["-1/2"], ["1/2"], ["1"], ["0"]]}'
    with pytest.raises(NegativeEntryError):
        deserialize(text)


def test_deserialize_bad_json_is_parse_error_with_location():
    with pytest.raises(ParseError) as info:
        deserialize("{not json")
    assert info.value.location.startswith("<json>")


@pytest.mark.parametrize("text", ["[" * 100_000, b"\xff{}"], ids=["deep", "not-utf-8"])
def test_deserialize_unreadable_json_is_parse_error(text):
    with pytest.raises(ParseError) as info:
        deserialize(text)
    assert info.value.location == "<json>"


@pytest.mark.parametrize(
    "text, location, message",
    [
        ("{not json", "in.json:1:2", "Expecting property name enclosed in double quotes"),
        ("[" * 100_000, "in.json", "JSON nested too deeply"),
        (b"\xff{}", "in.json", "can't decode byte 0xff"),
    ],
    ids=["syntax", "deep", "not-utf-8"],
)
def test_json_failures_are_parse_errors_at_the_given_location(text, location, message):
    with pytest.raises(ParseError) as info:
        _parse_json(text, "in.json")
    assert info.value.location == location
    assert message in str(info.value)


def test_deserialize_bad_rational_is_parse_error():
    text = '{"input_set": ["0"], "output_set": ["0"], "entries": [["one"]]}'
    with pytest.raises(ParseError) as info:
        deserialize(text)
    assert "entries[0][0]" in info.value.location


def test_deserialize_missing_field():
    with pytest.raises(ParseError):
        deserialize('{"output_set": ["0"], "entries": [["1"]]}')


def test_pair_distribution_validation():
    s = finite_set(["0", "1"])
    u = pair_distribution(s, [["1/2", "1/4"], ["1/4", "0"]])
    assert u.row_sum(0) == F(3, 4)
    assert u.column_sum(1) == F(1, 4)
    assert u.transpose().matrix[0][1] == F(1, 4)
    with pytest.raises(WeightsNotNormalizedError):
        pair_distribution(s, [["1/2", "1/4"], ["1/4", "1/4"]])
    with pytest.raises(NegativeEntryError):
        pair_distribution(s, [["3/2", "-1/4"], ["-1/4", "0"]])


def test_pair_weights_symmetry_probe():
    s = finite_set(["0", "1"])
    assert pair_weights(s, [["1/2", "1/4"], ["1/4", "1/2"]]).is_symmetric()
    assert not pair_weights(s, [["1/2", "1/4"], ["0", "1/2"]]).is_symmetric()


def test_kernel_vector_shape_and_matrix_view():
    s = finite_set(["0", "1"])
    v = KernelVector("right", s, (F(1), F(0), F(0), F(-1)))
    assert v.as_matrix() == ((F(1), F(0)), (F(0), F(-1)))
    with pytest.raises(ShapeMismatchError):
        KernelVector("left", s, (F(1),))
    with pytest.raises(ValueError):
        KernelVector("up", s, (F(1), F(0), F(0), F(-1)))


def test_deterministic_pair_tables():
    X = finite_set(["0", "1"])
    Y = finite_set(["a", "b"])
    pair = DeterministicPair(X, Y, ((0, 0), (1, 1)), ((0, 1), (0, 1)))
    assert pair.image_pair(0, 1) == (0, 1)
    assert pair.is_synchronous()
    with pytest.raises(ShapeMismatchError):
        DeterministicPair(X, Y, ((0,), (1, 1)), ((0, 1), (0, 1)))
    with pytest.raises(ShapeMismatchError):
        DeterministicPair(X, Y, ((0, 5), (1, 1)), ((0, 1), (0, 1)))
    with pytest.raises(ShapeMismatchError):
        DeterministicPair(X, Y, ((False, 0), (1, True)), ((0, 1), (0, 1)))


def test_correlation_requires_fraction_entries():
    X = finite_set(["0"])
    Y = finite_set(["0"])
    with pytest.raises(TypeError):
        Correlation(X, Y, ((0.5,),))


def test_set_equality_is_order_sensitive():
    assert finite_set(["a", "b"]) != finite_set(["b", "a"])
    p = identity(finite_set(["a", "b"]))
    q = identity(finite_set(["b", "a"]))
    assert p != q


def _with_cell(r, c, value):
    data = to_json_dict(identity(finite_set(["0", "1"])))
    data["entries"][r][c] = value
    return data


def _short_row():
    data = to_json_dict(identity(finite_set(["0", "1"])))
    data["entries"][2] = data["entries"][2][:3]
    return data


# Each failure as it was when every entry was parsed to a Fraction first:
# the exception, its location, its message and the CLI's exit code.
PARSE_FAILURES = {
    "zero-denominator": (_with_cell(1, 2, "1/0"), ParseError, "entries[1][2]", "Fraction(1, 0)", 2),
    "decimal": (
        _with_cell(1, 2, "1.5"),
        ParseError,
        "entries[1][2]",
        "'1.5' is not a rational of the form n or n/d",
        2,
    ),
    "float": (
        _with_cell(1, 2, 0.5),
        ParseError,
        "entries[1][2]",
        "cannot interpret 0.5 as an exact rational",
        2,
    ),
    "bool": (
        _with_cell(1, 2, True),
        ParseError,
        "entries[1][2]",
        "cannot interpret True as an exact rational",
        2,
    ),
    "nested-list": (
        _with_cell(1, 2, ["0"]),
        ParseError,
        "entries[1][2]",
        "cannot interpret ['0'] as an exact rational",
        2,
    ),
    "negative": (
        _with_cell(1, 2, "-1/2"),
        NegativeEntryError,
        None,
        "negative entry -1/2 at row 1, column 2",
        5,
    ),
    "short-row": (
        _short_row(),
        ShapeMismatchError,
        None,
        "expected 4 columns for input set of size 2, row 2 has 3",
        4,
    ),
    "column-sum": (
        _with_cell(0, 0, "1/2"),
        ColumnSumNotOneError,
        None,
        "column 0 sums to 1/2, expected 1",
        5,
    ),
}


@pytest.mark.parametrize("name", PARSE_FAILURES)
def test_parse_failures_keep_their_error_and_cli_line(name, tmp_path, capsys):
    data, error, location, message, code = PARSE_FAILURES[name]
    text = json.dumps(data)
    with pytest.raises(error) as info:
        deserialize(text)
    shown = message if location is None else f"{location}: {message}"
    assert str(info.value) == shown
    assert getattr(info.value, "location", None) == location
    path = tmp_path / "in.json"
    path.write_text(text)
    assert cli.main(["classify", str(path)]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [json.dumps({"error": error.__name__, "message": shown})]


def test_a_non_reduced_entry_parses_to_its_lowest_terms():
    reduced = _with_cell(0, 0, "1/2")
    reduced["entries"][1][0] = "1/2"
    other = _with_cell(0, 0, "2/4")
    other["entries"][1][0] = "6/12"
    p, q = from_json_dict(reduced), from_json_dict(other)
    assert p == q and repr(p) == repr(q) and serialize(p) == serialize(q)
    assert (q.lcms[0], q.columns[0]) == (2, (1, 1, 0, 0))


@st.composite
def fraction_matrices(draw):
    input_set = draw(st.sampled_from([finite_set(["0"]), finite_set(["0", "1"])]))
    output_set = draw(st.sampled_from([finite_set(["0", "1"]), finite_set(["a", "b", "c"])]))
    columns = []
    for _ in range(input_set.pair_count):
        column = [
            F(draw(st.integers(0, 5)), draw(st.integers(1, 12)))
            for _ in range(output_set.pair_count)
        ]
        total = sum(column, F(0))
        if total == 0:
            column[0] = total = F(1)
        columns.append([v / total for v in column])
    return input_set, output_set, tuple(zip(*columns))


@settings(max_examples=60, deadline=None)
@given(fraction_matrices())
def test_serialize_round_trips_and_keeps_the_fraction_repr(drawn):
    input_set, output_set, matrix = drawn
    p = Correlation(input_set, output_set, matrix)
    parsed = deserialize(serialize(p))
    assert parsed == p and hash(parsed) == hash(p)
    expected = (
        f"Correlation(input_set={input_set!r}, output_set={output_set!r}, matrix={matrix!r})"
    )
    assert repr(parsed) == repr(p) == expected
    for d, column, values in zip(parsed.lcms, parsed.columns, zip(*matrix)):
        assert d == math.lcm(*(v.denominator for v in values))
        assert [F(n, d) for n in column] == list(values)
