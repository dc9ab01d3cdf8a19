"""End-to-end tests for the command line interface.

Every test drives ``main(argv)`` in process and inspects the exit code,
the captured streams, and any files written.  Error paths are pinned to
the documented exit codes: 2 for parse failures, 3 for the size guard,
4 for mismatched sets or shapes, 5 for other domain errors.
"""

import json
import os
import resource
import subprocess
import sys
from fractions import Fraction as F

import pytest

from syncgames import (
    ClassicalModel,
    DeterministicPair,
    NotInCategoryError,
    PairDistribution,
    PairWeights,
    analyze,
    classical_model_to_json_dict,
    compose,
    deserialize,
    finite_set,
    from_classical_model,
    from_deterministic_pair,
    from_function,
    from_json_dict,
    from_quantum_model,
    identity,
    is_isomorphism,
    is_member,
    is_retraction,
    is_section,
    make_correlation,
    quantum_model_to_json_dict,
    random_correlation,
    random_quantum_model,
    serialize,
    to_json_dict,
    two_input_classical,
    two_input_nonsignaling,
    two_output_classical,
    two_output_nonsignaling,
    witness_from_json_dict,
)
from syncgames import category, cli, morphology
from syncgames.cli import main

B = finite_set(["0", "1"])
T = finite_set(["0", "1", "2"])

CYCLIC_ROWS = [
    ["0", "1/3", "0"],
    ["0", "0", "1/3"],
    ["1/3", "0", "0"],
]

# symmetric pairwise weights with a valid atom reconstruction
W3_ROWS = [
    ["1/2", "1/8", "1/4"],
    ["1/8", "1/4", "1/8"],
    ["1/4", "1/8", "1/2"],
]

QUARTERS = ["1/4", "1/4", "1/4", "1/4"]


@pytest.fixture(autouse=True)
def _clean_guard_env(monkeypatch):
    monkeypatch.delenv("SYNCGAMES_MAX_SIZE", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def write_correlation(tmp_path, name, p):
    path = tmp_path / name
    path.write_text(serialize(p) + "\n")
    return str(path)


def read_correlation(path):
    with open(path) as handle:
        return deserialize(handle.read())


def stderr_kind(err):
    return json.loads(err.strip().splitlines()[-1])


def half_diagonal():
    model = ClassicalModel(B, B, (((0, 0), F(1, 2)), ((1, 1), F(1, 2))))
    return from_classical_model(model)


def const_zero():
    return from_function(B, B, {"0": "0", "1": "0"})


# ---------------------------------------------------------------------------
# construct function
# ---------------------------------------------------------------------------


def test_construct_function_identity(tmp_path, capsys):
    out = str(tmp_path / "id.json")
    code, _, err = run(capsys, "construct", "function", "--map", "0:0,1:1", "--out", out)
    assert code == 0
    assert err == ""
    assert read_correlation(out) == identity(B)


def test_construct_function_infers_sets_from_map(tmp_path, capsys):
    # without --outputs the codomain is the set of map values, in order of
    # first appearance; a constant map therefore lands in a singleton set
    out = str(tmp_path / "c.json")
    code, _, _ = run(capsys, "construct", "function", "--map", "0:0,1:0", "--out", out)
    assert code == 0
    p = read_correlation(out)
    assert p.input_set.labels == ("0", "1")
    assert p.output_set.labels == ("0",)


def test_construct_function_explicit_sets(tmp_path, capsys):
    out = str(tmp_path / "f.json")
    code, _, _ = run(
        capsys,
        "construct", "function",
        "--map", "a:1,b:0",
        "--inputs", "a,b",
        "--outputs", "0,1",
        "--out", out,
    )
    assert code == 0
    expected = from_function(finite_set(["a", "b"]), B, {"a": "1", "b": "0"})
    assert read_correlation(out) == expected


def test_construct_function_unknown_label_is_domain_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "construct", "function", "--map", "0:0,1:2", "--outputs", "0,1"
    )
    assert code == 5
    assert stderr_kind(err)["error"] == "UnknownLabelError"


def test_construct_function_duplicate_labels_is_parse_error(capsys):
    for option in ("--inputs", "--outputs"):
        code, out, err = run(
            capsys, "construct", "function", "--map", "a:0,b:1", option, "a,a"
        )
        assert code == 2
        assert out == ""
        payload = stderr_kind(err)
        assert payload["error"] == "ParseError"
        assert payload["message"].startswith(option)


def test_construct_function_stdout(capsys):
    code, out, _ = run(capsys, "construct", "function", "--map", "0:0,1:1", "--out", "-")
    assert code == 0
    assert from_json_dict(json.loads(out)) == identity(B)


# ---------------------------------------------------------------------------
# construct pair / mixture / quantum
# ---------------------------------------------------------------------------


def test_construct_pair(tmp_path, capsys):
    y4 = finite_set(["0", "1", "2", "3"])
    payload = {
        "input_set": ["0", "1"],
        "output_set": ["0", "1", "2", "3"],
        "f_a": [[0, 2], [3, 1]],
        "f_b": [[0, 3], [2, 1]],
    }
    path = write_json(tmp_path, "pair.json", payload)
    out = str(tmp_path / "p.json")
    code, _, _ = run(capsys, "construct", "pair", path, "--out", out)
    assert code == 0
    expected = from_deterministic_pair(
        DeterministicPair(B, y4, ((0, 2), (3, 1)), ((0, 3), (2, 1)))
    )
    assert read_correlation(out) == expected


def test_construct_pair_missing_field(tmp_path, capsys):
    path = write_json(tmp_path, "pair.json", {"input_set": ["0"], "f_a": [[0]]})
    code, _, err = run(capsys, "construct", "pair", path)
    assert code == 2
    assert stderr_kind(err)["error"] == "ParseError"


def test_construct_pair_rejects_boolean_indices(tmp_path, capsys):
    payload = {
        "input_set": ["0", "1"],
        "output_set": ["0", "1"],
        "f_a": [[0, 1], [1, 1]],
        "f_b": [[0, 1], [True, 1]],
    }
    path = write_json(tmp_path, "pair.json", payload)
    code, out, err = run(capsys, "construct", "pair", path, "--out", "-")
    assert code == 2
    assert out == ""
    [line] = err.strip().splitlines()
    assert json.loads(line) == {
        "error": "ParseError",
        "message": "f_b[1][0]: expected an integer, got true",
    }


def test_construct_mixture(tmp_path, capsys):
    model = ClassicalModel(B, B, (((0, 0), F(1, 2)), ((1, 1), F(1, 2))))
    path = write_json(tmp_path, "model.json", classical_model_to_json_dict(model))
    out = str(tmp_path / "p.json")
    code, _, _ = run(capsys, "construct", "mixture", path, "--out", out)
    assert code == 0
    assert read_correlation(out) == from_classical_model(model)


def test_construct_quantum(tmp_path, capsys):
    model = random_quantum_model(B, B, 2, 7)
    path = write_json(tmp_path, "model.json", quantum_model_to_json_dict(model))
    out = str(tmp_path / "p.json")
    code, _, _ = run(capsys, "construct", "quantum", path, "--out", out)
    assert code == 0
    assert read_correlation(out) == from_quantum_model(model)


# ---------------------------------------------------------------------------
# construct two-input / two-output
# ---------------------------------------------------------------------------


def cyclic_distribution_file(tmp_path, name):
    return write_json(tmp_path, name, {"labels": ["0", "1", "2"], "entries": CYCLIC_ROWS})


def cyclic_distribution():
    rows = tuple(tuple(F(v) for v in row) for row in CYCLIC_ROWS)
    return PairDistribution(T, rows)


def test_construct_two_input_ns(tmp_path, capsys):
    u = cyclic_distribution_file(tmp_path, "u.json")
    out = str(tmp_path / "p.json")
    code, _, _ = run(capsys, "construct", "two-input-ns", "--u", u, "--v", u, "--out", out)
    assert code == 0
    d = cyclic_distribution()
    assert read_correlation(out) == two_input_nonsignaling(d, d)


def test_construct_two_input_ns_marginal_mismatch(tmp_path, capsys):
    u = cyclic_distribution_file(tmp_path, "u.json")
    v = write_json(
        tmp_path,
        "v.json",
        {
            "labels": ["0", "1", "2"],
            "entries": [["1/3", "0", "0"], ["0", "1/3", "0"], ["1/6", "0", "1/6"]],
        },
    )
    code, _, err = run(capsys, "construct", "two-input-ns", "--u", u, "--v", v)
    assert code == 5
    assert stderr_kind(err)["error"] == "MarginalMismatchError"


def test_construct_two_input_classical(tmp_path, capsys):
    u = write_json(
        tmp_path,
        "u.json",
        {"labels": ["0", "1"], "entries": [["1/4", "1/4"], ["1/4", "1/4"]]},
    )
    out = str(tmp_path / "p.json")
    code, _, _ = run(capsys, "construct", "two-input-classical", "--u", u, "--out", out)
    assert code == 0
    uniform = PairDistribution(B, ((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4))))
    assert read_correlation(out) == two_input_classical(uniform)


def test_construct_two_output_ns(tmp_path, capsys):
    w = write_json(tmp_path, "w.json", {"labels": ["0", "1", "2"], "entries": W3_ROWS})
    out = str(tmp_path / "p.json")
    code, _, _ = run(capsys, "construct", "two-output-ns", "--w", w, "--out", out)
    assert code == 0
    weights = PairWeights(
        T,
        (
            (F(1, 2), F(1, 8), F(1, 4)),
            (F(1, 8), F(1, 4), F(1, 8)),
            (F(1, 4), F(1, 8), F(1, 2)),
        ),
    )
    assert read_correlation(out) == two_output_nonsignaling(weights)


def test_pair_weights_duplicate_labels_is_parse_error(tmp_path, capsys):
    w = write_json(tmp_path, "w.json", {"labels": ["a", "a"], "entries": W3_ROWS[:2]})
    code, _, err = run(capsys, "construct", "two-output-ns", "--w", w)
    assert code == 2
    payload = stderr_kind(err)
    assert payload["error"] == "ParseError"
    assert payload["message"].startswith("labels")


def test_construct_two_output_classical(tmp_path, capsys):
    w = write_json(tmp_path, "w.json", {"labels": ["0", "1", "2"], "entries": W3_ROWS})
    out = str(tmp_path / "p.json")
    code, _, _ = run(capsys, "construct", "two-output-classical", "--w", w, "--out", out)
    assert code == 0
    payload = json.loads(open(out).read())
    assert set(payload) == {"model", "correlation"}
    from syncgames import classical_model_from_json_dict

    model = classical_model_from_json_dict(payload["model"])
    correlation = from_json_dict(payload["correlation"])
    assert from_classical_model(model) == correlation
    weights = PairWeights(
        T,
        (
            (F(1, 2), F(1, 8), F(1, 4)),
            (F(1, 8), F(1, 4), F(1, 8)),
            (F(1, 4), F(1, 8), F(1, 2)),
        ),
    )
    assert correlation == two_output_classical(weights)[1]


def test_construct_two_output_classical_rejects_asymmetric(tmp_path, capsys):
    w = write_json(
        tmp_path,
        "w.json",
        {"labels": ["0", "1"], "entries": [["1/2", "1/8"], ["1/4", "1/2"]]},
    )
    code, _, err = run(capsys, "construct", "two-output-classical", "--w", w)
    assert code == 5
    assert stderr_kind(err)["error"] == "NotSymmetricError"


# ---------------------------------------------------------------------------
# construct random
# ---------------------------------------------------------------------------


def test_construct_random_is_deterministic(tmp_path, capsys):
    args = ["construct", "random", "--kind", "classical", "--inputs", "0,1,2", "--outputs", "0,1", "--seed", "3"]
    first = str(tmp_path / "a.json")
    second = str(tmp_path / "b.json")
    code, _, _ = run(capsys, *args, "--out", first)
    assert code == 0
    code, _, _ = run(capsys, *args, "--out", second)
    assert code == 0
    assert open(first).read() == open(second).read()
    p = read_correlation(first)
    assert is_member(p, "HV")


def test_construct_random_unknown_kind_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["construct", "random", "--kind", "nope", "--inputs", "0", "--outputs", "0"])
    assert excinfo.value.code == 2


def _call(capsys, argv):
    """Exit code, stdout and stderr of one call, usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_answers_like_a_fresh_one(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "p.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize(random_correlation("classical", B, T, 3)) + "\n")
    calls = [
        ["classify", path],
        ["classify", path, "--format", "table"],
        ["classify", path, "--max-size", "1"],
        ["classify", path],
        ["classify", path, "--format", "xml"],
        ["witness", "epi", path, "--category", "NS"],
        ["boole", "pair-bounds", "--a", "1/2"],
        ["boole", "pair-bounds", "--a", "1/2", "--b", "2/3"],
    ]
    reused = [_call(capsys, argv) for argv in calls]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        fresh.append(_call(capsys, argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 3, 0, 2, 0, 2, 0]
    assert reused[0][1] != reused[1][1] and reused[0] == reused[3]


# ---------------------------------------------------------------------------
# size guard
# ---------------------------------------------------------------------------


def test_guard_blocks_large_sets(capsys):
    code, _, err = run(
        capsys,
        "construct", "random",
        "--kind", "classical",
        "--inputs", "0,1,2,3,4,5,6",
        "--outputs", "0,1",
    )
    assert code == 3
    payload = stderr_kind(err)
    assert payload["error"] == "SizeGuard"
    assert "set size 7 exceeds the guard 6" in payload["message"]


def test_guard_raised_by_flag_with_warning(tmp_path, capsys):
    out = str(tmp_path / "p.json")
    code, _, err = run(
        capsys,
        "construct", "random",
        "--kind", "classical",
        "--inputs", "0,1,2,3,4,5,6",
        "--outputs", "0,1",
        "--max-size", "8",
        "--out", out,
    )
    assert code == 0
    assert "size guard raised to 8" in err


def test_guard_env_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SYNCGAMES_MAX_SIZE", "8")
    out = str(tmp_path / "p.json")
    code, _, _ = run(
        capsys,
        "construct", "random",
        "--kind", "classical",
        "--inputs", "0,1,2,3,4,5,6",
        "--outputs", "0,1",
        "--out", out,
    )
    assert code == 0


def test_guard_env_can_lower_and_flag_overrides(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SYNCGAMES_MAX_SIZE", "4")
    argv = [
        "construct", "random",
        "--kind", "classical",
        "--inputs", "0,1,2,3,4",
        "--outputs", "0,1",
    ]
    code, _, err = run(capsys, *argv)
    assert code == 3
    out = str(tmp_path / "p.json")
    code, _, _ = run(capsys, *argv, "--max-size", "5", "--out", out)
    assert code == 0


def test_guard_env_not_integer(capsys, monkeypatch):
    monkeypatch.setenv("SYNCGAMES_MAX_SIZE", "many")
    code, _, err = run(
        capsys,
        "construct", "random",
        "--kind", "classical",
        "--inputs", "0,1",
        "--outputs", "0,1",
    )
    assert code == 2
    payload = stderr_kind(err)
    assert payload["error"] == "ParseError"
    assert "SYNCGAMES_MAX_SIZE" in payload["message"]


def test_guard_applies_to_classify(tmp_path, capsys):
    big = finite_set([str(i) for i in range(7)])
    path = write_correlation(tmp_path, "big.json", identity(big))
    code, _, err = run(capsys, "classify", path)
    assert code == 3
    assert stderr_kind(err)["error"] == "SizeGuard"


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------


def test_compose_identity_is_neutral(tmp_path, capsys):
    p = half_diagonal()
    id_path = write_correlation(tmp_path, "id.json", identity(B))
    p_path = write_correlation(tmp_path, "p.json", p)
    out = str(tmp_path / "q.json")
    code, _, _ = run(capsys, "compose", id_path, p_path, "--out", out)
    assert code == 0
    assert read_correlation(out) == p


def test_compose_negation_squares_to_identity(tmp_path, capsys):
    neg = from_function(B, B, {"0": "1", "1": "0"})
    neg_path = write_correlation(tmp_path, "neg.json", neg)
    out = str(tmp_path / "q.json")
    code, _, _ = run(capsys, "compose", neg_path, neg_path, "--out", out)
    assert code == 0
    assert read_correlation(out) == identity(B)


def test_compose_set_mismatch(tmp_path, capsys):
    b_path = write_correlation(tmp_path, "b.json", identity(B))
    t_path = write_correlation(tmp_path, "t.json", identity(T))
    code, _, err = run(capsys, "compose", b_path, t_path)
    assert code == 4
    assert stderr_kind(err)["error"] == "SetMismatchError"


# ---------------------------------------------------------------------------
# parse and validation failures
# ---------------------------------------------------------------------------


def test_missing_file_is_parse_error(tmp_path, capsys):
    missing = str(tmp_path / "nosuch.json")
    code, _, err = run(capsys, "classify", missing)
    assert code == 2
    payload = stderr_kind(err)
    assert payload["error"] == "ParseError"
    assert "nosuch.json" in payload["message"]


def test_malformed_json_is_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    assert stderr_kind(err)["error"] == "ParseError"


@pytest.mark.parametrize(
    "content",
    [b"[" * 100_000, b"\xff{}"],
    ids=["nested-100000-deep", "not-utf-8"],
)
@pytest.mark.parametrize(
    "argv",
    [["classify"], ["boole", "transform", "--direction", "p2w"]],
    ids=["classify", "boole-transform"],
)
def test_unreadable_json_is_one_parse_error_line(tmp_path, capsys, content, argv):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run(capsys, *argv[:2], str(path), *argv[2:])
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ParseError"


def test_wrong_shape_json_is_parse_error(tmp_path, capsys):
    path = write_json(tmp_path, "odd.json", {"labels": []})
    code, _, err = run(capsys, "classify", path)
    assert code == 2
    assert stderr_kind(err)["error"] == "ParseError"


def test_bad_column_sums_is_domain_error(tmp_path, capsys):
    payload = to_json_dict(identity(B))
    payload["entries"][0][0] = "1/2"
    path = write_json(tmp_path, "bad.json", payload)
    code, _, err = run(capsys, "classify", path)
    assert code == 5
    assert stderr_kind(err)["error"] == "ColumnSumNotOneError"


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_identity_report(tmp_path, capsys):
    path = write_correlation(tmp_path, "id.json", identity(B))
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    report = json.loads(out)
    assert report["input_set"] == ["0", "1"]
    assert report["output_set"] == ["0", "1"]
    for key in ("synchronous", "nonsignaling", "symmetric", "deterministic"):
        assert report[key] is True
    assert report["classical"] is True
    for tag in ("S", "NS", "Q", "HV"):
        flags = report["categories"][tag]
        assert flags["member"] is True
        for prop in (
            "section",
            "retraction",
            "monomorphism",
            "epimorphism",
            "bimorphism",
            "isomorphism",
        ):
            assert flags[prop] is True, (tag, prop)


def test_classify_cyclic_report(tmp_path, capsys):
    d = cyclic_distribution()
    p = two_input_nonsignaling(d, d)
    path = write_correlation(tmp_path, "cyc.json", p)
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    report = json.loads(out)
    assert report["synchronous"] is True
    assert report["nonsignaling"] is True
    assert report["symmetric"] is False
    assert report["classical"] is False
    assert report["categories"]["Q"] == {"member": False}
    assert report["categories"]["HV"] == {"member": False}
    s_flags = report["categories"]["S"]
    ns_flags = report["categories"]["NS"]
    assert s_flags["member"] and ns_flags["member"]
    # mono and epi depend only on the matrix, never on the ambient category
    assert s_flags["monomorphism"] == ns_flags["monomorphism"]
    assert s_flags["epimorphism"] == ns_flags["epimorphism"]


def test_classify_signaling_report(tmp_path, capsys):
    y4 = finite_set(["0", "1", "2", "3"])
    p = from_deterministic_pair(
        DeterministicPair(B, y4, ((0, 2), (3, 1)), ((0, 3), (2, 1)))
    )
    path = write_correlation(tmp_path, "sig.json", p)
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    report = json.loads(out)
    assert report["synchronous"] is True
    assert report["nonsignaling"] is False
    assert report["categories"]["S"]["member"] is True
    assert report["categories"]["NS"] == {"member": False}


def test_classify_table_format(tmp_path, capsys):
    path = write_correlation(tmp_path, "id.json", identity(B))
    code, out, _ = run(capsys, "classify", path, "--format", "table")
    assert code == 0
    lines = out.splitlines()
    by_prefix = {line.split(":")[0]: line for line in lines if ":" in line}
    assert by_prefix["input set"].endswith("0 1")
    assert by_prefix["synchronous"].endswith("yes")
    header = [line for line in lines if line.startswith("category")]
    assert header and "isomorphism" in header[0]


def test_classify_emit_witnesses_none_needed(tmp_path, capsys):
    path = write_correlation(tmp_path, "id.json", identity(B))
    wdir = str(tmp_path / "w")
    code, out, _ = run(capsys, "classify", path, "--emit-witnesses", wdir)
    assert code == 0
    assert json.loads(out)["witnesses"] == {}


def test_classify_emit_witnesses_const(tmp_path, capsys):
    p = const_zero()
    path = write_correlation(tmp_path, "const.json", p)
    wdir = str(tmp_path / "w")
    code, out, _ = run(capsys, "classify", path, "--emit-witnesses", wdir)
    assert code == 0
    report = json.loads(out)
    expected = {f"{side}_{tag}" for side in ("mono", "epi") for tag in ("S", "NS", "Q", "HV")}
    assert set(report["witnesses"]) == expected
    for name, wpath in report["witnesses"].items():
        assert os.path.exists(wpath)
        witness = witness_from_json_dict(json.loads(open(wpath).read()))
        side, tag = name.split("_")
        assert witness.side == side
        assert witness.category == tag
        assert witness.q_plus != witness.q_minus
        assert is_member(witness.q_plus, tag)
        assert is_member(witness.q_minus, tag)
        if side == "mono":
            assert compose(p, witness.q_plus) == compose(p, witness.q_minus)
        else:
            assert compose(witness.q_plus, p) == compose(witness.q_minus, p)
        if tag in ("Q", "HV"):
            assert witness.model_plus is not None
            assert from_classical_model(witness.model_plus) == witness.q_plus


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def test_witness_holds_line_and_exit_one(tmp_path, capsys):
    path = write_correlation(tmp_path, "id.json", identity(B))
    code, out, _ = run(capsys, "witness", "mono", path, "--category", "S")
    assert code == 1
    assert json.loads(out) == {"side": "mono", "category": "S", "holds": True}


def test_witness_epi_failure_file(tmp_path, capsys):
    p = const_zero()
    path = write_correlation(tmp_path, "const.json", p)
    out = str(tmp_path / "w.json")
    code, _, _ = run(capsys, "witness", "epi", path, "--category", "NS", "--out", out)
    assert code == 0
    witness = witness_from_json_dict(json.loads(open(out).read()))
    assert witness.side == "epi"
    assert witness.category == "NS"
    assert witness.q_plus != witness.q_minus
    assert compose(witness.q_plus, p) == compose(witness.q_minus, p)


def test_witness_mono_failure_stdout(tmp_path, capsys):
    p = const_zero()
    path = write_correlation(tmp_path, "const.json", p)
    code, out, _ = run(capsys, "witness", "mono", path, "--category", "Q", "--out", "-")
    assert code == 0
    witness = witness_from_json_dict(json.loads(out))
    assert witness.model_plus is not None
    assert compose(p, witness.q_plus) == compose(p, witness.q_minus)


def test_witness_requires_membership(tmp_path, capsys):
    p = make_correlation(B, B, [["1/4"] * 4] * 4)
    path = write_correlation(tmp_path, "u.json", p)
    code, _, err = run(capsys, "witness", "mono", path, "--category", "S")
    assert code == 5
    assert stderr_kind(err)["error"] == "NotInCategoryError"


# ---------------------------------------------------------------------------
# boole
# ---------------------------------------------------------------------------


def test_boole_pair_bounds(capsys):
    code, out, _ = run(capsys, "boole", "pair-bounds", "--a", "7/10", "--b", "3/5")
    assert code == 0
    assert json.loads(out) == {"lower": "3/10", "upper": "3/5"}


def test_boole_pair_bounds_bad_rational(capsys):
    code, _, err = run(capsys, "boole", "pair-bounds", "--a", "x", "--b", "1/2")
    assert code == 2
    assert stderr_kind(err)["error"] == "ParseError"


@pytest.mark.parametrize("text", ["0.5", "1e5"])
def test_rationals_outside_the_grammar_exit_2(tmp_path, capsys, text):
    code, _, err = run(capsys, "boole", "pair-bounds", "--a", text, "--b", "1/2")
    assert code == 2
    assert stderr_kind(err)["error"] == "ParseError"
    path = write_json(
        tmp_path, "p.json", {"input_set": ["0"], "output_set": ["0"], "entries": [[text]]}
    )
    code, _, err = run(capsys, "classify", path)
    assert code == 2
    assert stderr_kind(err)["error"] == "ParseError"


def test_boole_pair_bounds_out_of_range(capsys):
    code, _, err = run(capsys, "boole", "pair-bounds", "--a", "3/2", "--b", "1/2")
    assert code == 5
    assert stderr_kind(err)["error"] == "OutOfRangeError"


def test_boole_triple_bounds(tmp_path, capsys):
    w = write_json(
        tmp_path,
        "w.json",
        {
            "labels": ["x0", "x1", "x2"],
            "entries": [
                ["1/2", "1/4", "1/4"],
                ["1/4", "1/2", "1/4"],
                ["1/4", "1/4", "1/2"],
            ],
        },
    )
    code, out, _ = run(capsys, "boole", "triple-bounds", "--w", w)
    assert code == 0
    payload = json.loads(out)
    assert payload["lower"] == "0"
    assert payload["upper"] == "1/4"
    assert payload["feasible"] is True
    assert len(payload["lowers"]) == 4
    assert len(payload["uppers"]) == 4


def test_boole_triple_bounds_requires_symmetry(tmp_path, capsys):
    w = write_json(
        tmp_path,
        "w.json",
        {
            "labels": ["x0", "x1", "x2"],
            "entries": [
                ["1/2", "1/4", "1/4"],
                ["1/8", "1/2", "1/4"],
                ["1/4", "1/4", "1/2"],
            ],
        },
    )
    code, _, err = run(capsys, "boole", "triple-bounds", "--w", w)
    assert code == 5
    assert stderr_kind(err)["error"] == "NotSymmetricError"


def test_boole_triple_bounds_requires_three_events(tmp_path, capsys):
    w = write_json(
        tmp_path,
        "w.json",
        {"labels": ["x0", "x1"], "entries": [["1/2", "1/4"], ["1/4", "1/2"]]},
    )
    code, _, err = run(capsys, "boole", "triple-bounds", "--w", w)
    assert code == 5
    assert stderr_kind(err)["error"] == "UnsupportedShapeError"


def test_boole_triple_inequalities_text(capsys):
    code, out, _ = run(capsys, "boole", "triple-inequalities")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 16
    assert "0 <= +1*w(x0,x1)" in lines


def test_boole_triple_inequalities_json(capsys):
    code, out, _ = run(capsys, "boole", "triple-inequalities", "--json")
    assert code == 0
    items = json.loads(out)
    assert len(items) == 16
    assert all("text" in item for item in items)


def test_boole_transform_roundtrip(tmp_path, capsys):
    atoms = write_json(
        tmp_path,
        "atoms.json",
        {"n": 2, "interpretation": "atoms", "entries": QUARTERS},
    )
    mid = str(tmp_path / "w.json")
    code, _, _ = run(capsys, "boole", "transform", atoms, "--direction", "p2w", "--out", mid)
    assert code == 0
    payload = json.loads(open(mid).read())
    assert payload == {
        "n": 2,
        "interpretation": "intersections",
        "entries": ["1", "1/2", "1/2", "1/4"],
    }
    back = str(tmp_path / "p.json")
    code, _, _ = run(capsys, "boole", "transform", mid, "--direction", "w2p", "--out", back)
    assert code == 0
    result = json.loads(open(back).read())
    assert result["entries"] == QUARTERS
    assert result["feasible"] is True
    assert result["negative_indices"] == []


def test_boole_transform_direction_mismatch(tmp_path, capsys):
    atoms = write_json(
        tmp_path,
        "atoms.json",
        {"n": 2, "interpretation": "atoms", "entries": QUARTERS},
    )
    code, _, err = run(capsys, "boole", "transform", atoms, "--direction", "w2p")
    assert code == 2
    assert stderr_kind(err)["error"] == "ParseError"


def test_boole_transform_infeasible_intersections(tmp_path, capsys):
    w = write_json(
        tmp_path,
        "w.json",
        {"n": 2, "interpretation": "intersections", "entries": ["1", "3/4", "3/4", "1/4"]},
    )
    code, out, _ = run(capsys, "boole", "transform", w, "--direction", "w2p")
    assert code == 0
    result = json.loads(out)
    assert result["feasible"] is False
    assert result["negative_indices"] == [0]
    assert result["entries"][0] == "-1/4"


def test_boole_reconstruct_feasible(tmp_path, capsys):
    w = write_json(
        tmp_path,
        "w.json",
        {"n": 2, "interpretation": "intersections", "entries": ["1", "1/2", "1/2", "1/4"]},
    )
    code, out, _ = run(capsys, "boole", "reconstruct", w)
    assert code == 0
    result = json.loads(out)
    assert result["feasible"] is True
    assert result["atoms"]["entries"] == QUARTERS
    assert "entries" not in result or result.get("atoms")


def test_boole_reconstruct_infeasible(tmp_path, capsys):
    w = write_json(
        tmp_path,
        "w.json",
        {"n": 2, "interpretation": "intersections", "entries": ["1", "3/4", "3/4", "1/4"]},
    )
    code, out, _ = run(capsys, "boole", "reconstruct", w)
    assert code == 0
    result = json.loads(out)
    assert result["feasible"] is False
    assert "atoms" not in result
    assert result["negative_indices"] == [0]


def test_boole_vector_bad_interpretation(tmp_path, capsys):
    w = write_json(
        tmp_path,
        "w.json",
        {"n": 2, "interpretation": "other", "entries": QUARTERS},
    )
    code, _, err = run(capsys, "boole", "reconstruct", w)
    assert code == 2
    assert stderr_kind(err)["error"] == "ParseError"


_BAD_CELLS = [
    ("x", "'x' is not a rational of the form n or n/d"),
    ("1/0", "Fraction(1, 0)"),
    ("0.5", "'0.5' is not a rational of the form n or n/d"),
    (" 1", "' 1' is not a rational of the form n or n/d"),
    ("1e3", "'1e3' is not a rational of the form n or n/d"),
    (0.5, "cannot interpret 0.5 as an exact rational"),
    (True, "cannot interpret True as an exact rational"),
    (None, "cannot interpret None as an exact rational"),
    ([], "cannot interpret [] as an exact rational"),
]


@pytest.mark.parametrize("cell, message", _BAD_CELLS, ids=[repr(c) for c, _ in _BAD_CELLS])
@pytest.mark.parametrize(
    "argv, entries",
    [
        (["transform", "--direction", "p2w"], ["1/4", "1/4", "1/4", "1/4"]),
        (["transform", "--direction", "w2p"], ["1", "1/2", "1/2", "1/4"]),
        (["reconstruct"], ["1", "1/2", "1/2", "1/4"]),
    ],
    ids=["p2w", "w2p", "reconstruct"],
)
def test_boole_parse_failures_keep_their_cli_line(tmp_path, capsys, argv, entries, cell, message):
    # Exit code 2 and one JSON line on stderr, naming the first failing
    # cell and not the later bad one.
    interpretation = "atoms" if "p2w" in argv else "intersections"
    entries = entries[:2] + [cell, "y"]
    path = write_json(
        tmp_path, "v.json", {"n": 2, "interpretation": interpretation, "entries": entries}
    )
    code, out, err = run(capsys, "boole", argv[0], path, *argv[1:])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ParseError", "message": f"entries[2]: {message}"}


def test_boole_vector_absurd_length_is_shape_mismatch(tmp_path):
    # 2**n for this n needs more than 100 GB; the child runs under a 1 GiB
    # address-space limit so that building it fails fast instead of
    # exhausting the host.
    path = write_json(
        tmp_path, "v.json", {"n": 10**12, "interpretation": "atoms", "entries": QUARTERS}
    )
    limit = 1 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.dirname(os.path.dirname(morphology.__file__))
    argv = ["boole", "transform", path, "--direction", "p2w"]
    done = subprocess.run(
        [sys.executable, "-m", "syncgames.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=cap_memory,
        timeout=60,
    )
    assert done.returncode == 4, done.stderr
    assert "Traceback" not in done.stderr
    assert stderr_kind(done.stderr)["error"] == "ShapeMismatchError"


# ---------------------------------------------------------------------------
# one analysis per call
# ---------------------------------------------------------------------------


def counting(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.fixture
def solver_calls(monkeypatch):
    counts = {}
    counting(monkeypatch, category, "find_nonnegative_combination", counts)
    counting(monkeypatch, morphology, "right_nullspace_basis", counts)
    counting(monkeypatch, morphology, "left_nullspace_basis", counts)
    return counts


def test_classify_emit_witnesses_solves_once(tmp_path, capsys, solver_calls):
    model = ClassicalModel(
        T, B, (((0, 0, 1), F(1, 2)), ((0, 1, 1), F(1, 4)), ((1, 0, 0), F(1, 4)))
    )
    path = write_correlation(tmp_path, "mix.json", from_classical_model(model))
    wdir = str(tmp_path / "w")
    code, out, _ = run(capsys, "classify", path, "--emit-witnesses", wdir)
    assert code == 0
    report = json.loads(out)
    assert report["classical"] is True
    assert sorted(report["witnesses"]) == ["mono_HV", "mono_NS", "mono_Q", "mono_S"]
    assert solver_calls == {
        "find_nonnegative_combination": 1,
        "right_nullspace_basis": 1,
        "left_nullspace_basis": 1,
    }


def test_classify_emit_witnesses_builds_each_classical_witness_once(
    tmp_path, capsys, monkeypatch
):
    model = ClassicalModel(
        T, B, (((0, 0, 1), F(1, 2)), ((0, 1, 1), F(1, 4)), ((1, 0, 0), F(1, 4)))
    )
    path = write_correlation(tmp_path, "mix.json", from_classical_model(model))
    counts = {}
    for name in ("_mono_witness", "_epi_witness", "_verify_witness"):
        counting(monkeypatch, morphology, name, counts)
    wdir = tmp_path / "w"
    code, out, _ = run(capsys, "classify", path, "--emit-witnesses", str(wdir))
    assert code == 0
    assert sorted(json.loads(out)["witnesses"]) == ["mono_HV", "mono_NS", "mono_Q", "mono_S"]
    # S, NS and one for Q and HV together, on each side; only mono finds one.
    assert counts == {"_mono_witness": 3, "_epi_witness": 3, "_verify_witness": 3}
    q, hv = (json.loads((wdir / f"mono_{tag}.json").read_text()) for tag in ("Q", "HV"))
    assert (q.pop("category"), hv.pop("category")) == ("Q", "HV")
    assert q == hv


def half_section():
    # 1/2 (0, 2) + 1/2 (1, 3): a section in every category, not deterministic
    y4 = finite_set(["0", "1", "2", "3"])
    return from_classical_model(ClassicalModel(B, y4, (((0, 2), F(1, 2)), ((1, 3), F(1, 2)))))


def test_cheap_questions_solve_nothing(tmp_path, capsys, solver_calls):
    assert is_section(half_diagonal(), "S") is False
    assert is_member(half_diagonal(), "Q") is True
    # section, retraction and isomorphism read the supports of the columns
    section = analyze(half_section())
    for tag in ("S", "NS", "Q"):
        assert is_section(section, tag) is True
        assert is_retraction(section, tag) is False
        assert is_isomorphism(section, tag) is False
    asymmetric = analyze(two_input_nonsignaling(cyclic_distribution(), cyclic_distribution()))
    for tag in ("S", "NS", "Q", "HV"):
        for decide in (is_section, is_retraction, is_isomorphism):
            if tag in ("S", "NS"):
                assert decide(asymmetric, tag) is False
            else:
                with pytest.raises(NotInCategoryError):
                    decide(asymmetric, tag)
    y4 = finite_set(["0", "1", "2", "3"])
    signaling = DeterministicPair(B, y4, ((0, 2), (1, 3)), ((1, 3), (0, 2)))
    path = write_correlation(tmp_path, "nonsync.json", from_deterministic_pair(signaling))
    code, out, _ = run(capsys, "classify", path, "--emit-witnesses", str(tmp_path / "w"))
    assert code == 0
    report = json.loads(out)
    assert report["synchronous"] is False
    assert report["witnesses"] == {}
    assert solver_calls == {}
    # in HV the one solve is the membership LP, shared by all three questions
    assert is_section(section, "HV") and not is_isomorphism(section, "HV")
    assert solver_calls == {"find_nonnegative_combination": 1}


def test_classify_computes_each_support_rule_once(tmp_path, capsys, monkeypatch):
    counts = {}
    counting(monkeypatch, morphology, "_section_choice", counts)
    counting(monkeypatch, morphology, "_retraction_choice", counts)
    path = write_correlation(tmp_path, "section.json", half_section())
    for extra in ((), ("--format", "table"), ("--emit-witnesses", str(tmp_path / "w"))):
        counts.clear()
        code, out, _ = run(capsys, "classify", path, *extra)
        assert code == 0
        assert counts == {"_section_choice": 1, "_retraction_choice": 1}
    for row in json.loads(out)["categories"].values():
        assert (row["section"], row["retraction"], row["isomorphism"]) == (True, False, False)
