"""Tests of the benchmark itself: tracer arithmetic, wrappers and oracles.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from syncgames import category, constructors, corrcore, morphology, simplex  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import Mismatch  # noqa: E402


def test_self_times_subtract_direct_children_only():
    spans = [
        Span("op", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 2.0, 3.0, 1),
        Span("c", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_parents_with_its_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return tracer.call("b", lambda: None)

    tracer.call("op", lambda: tracer.call("a", inner))
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("op", 0.0, 5.0, None),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
    ]
    assert self_times(tracer.spans) == [2.0, 2.0, 1.0]


def test_install_wraps_every_binding_and_uninstall_restores():
    original = simplex.find_nonnegative_combination
    tracer = Tracer()
    tracer.install()
    try:
        assert category.find_nonnegative_combination is not original
        assert simplex.find_nonnegative_combination is category.find_nonnegative_combination
        p = workloads.mixture(random.Random(0), 3, 3)
        tracer.call("op", category.classify, p)
    finally:
        tracer.uninstall()
    assert category.find_nonnegative_combination is original
    assert simplex.find_nonnegative_combination is original
    names = [s.name for s in tracer.spans]
    assert names.count("simplex.solve") == 1
    decompose = names.index("category.decompose")
    assert tracer.spans[names.index("simplex.solve")].parent == decompose
    layers = layer_metrics(tracer.spans, json_bytes=0)
    assert layers["simplex.calls_per_op"] == 1
    assert layers["category.lp_columns"] == 3**3
    assert layers["category.lp_rows"] == 3**2 * 3**2
    assert 0 < layers["category.lp_column_use"] <= 1


def test_rescale_divides_by_the_reference_speed():
    assert run.rescale(1.0, run.REF_NOMINAL_S, run.REF_NOMINAL_S) == 1.0
    assert run.rescale(1.0, 2 * run.REF_NOMINAL_S, 2 * run.REF_NOMINAL_S) == 0.5
    assert run.rescale(3.0, run.REF_NOMINAL_S, 3 * run.REF_NOMINAL_S) == pytest.approx(1.5)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(v) for v in range(1, 101)]) == (90, 90.0, 10)
    assert run.tail([float(v) for v in range(1, 201)]) == (95, 190.0, 10)


def test_classical_oracle_rejects_a_perturbed_model():
    p = workloads.mixture(random.Random(1), 3, 2)
    label = category.classify(p)
    workloads.check_label(label, p, classical=True)
    weights = dict(label.classical.weights)
    first, second = sorted(weights)[:2]
    shift = min(weights[first], Fraction(1, 100))
    weights[first] -= shift
    weights[second] += shift
    model = constructors.classical_model(p.input_set, p.output_set, weights)
    with pytest.raises(Mismatch):
        workloads.check_label(dataclasses.replace(label, classical=model), p, classical=True)


def test_nonclassical_oracle_rejects_a_model():
    rng = random.Random(2)
    p = constructors.two_output_nonsignaling(workloads.violating_weights(rng, 4))
    assert "inequality" in workloads.certify_nonclassical(p, 1, [0, 1, 2, 3])
    label = category.classify(p)
    workloads.check_label(label, p, classical=False)
    fake = constructors.classical_model(p.input_set, p.output_set, {(0, 0, 0, 0): 1})
    with pytest.raises(Mismatch):
        workloads.check_label(dataclasses.replace(label, classical=fake), p, classical=False)


def test_witness_oracle_rejects_a_swapped_member():
    rng = random.Random(3)
    p = workloads.through_two_points(rng, 4, 4)
    other = workloads.through_two_points(rng, 4, 4)
    data = morphology.witness_to_json_dict(morphology.mono_witness(p, "NS"))
    workloads.check_witness(data, p, "mono", "NS")
    swapped = dict(data, q_minus=morphology.witness_to_json_dict(
        morphology.mono_witness(other, "NS"))["q_minus"])
    with pytest.raises(Mismatch):
        workloads.check_witness(swapped, p, "mono", "NS")
    with pytest.raises(Mismatch):
        workloads.check_witness(dict(data, q_minus=data["q_plus"]), p, "mono", "NS")


def test_witness_oracle_rejects_a_member_outside_the_category():
    # p has equal columns at inputs (0, 0) and (0, 1), so moving mass of a
    # member between those two output pairs keeps its composition with p.
    rng = random.Random(5)
    base = workloads.random_synchronous(rng, 3, 3)
    matrix = [list(row) for row in base.matrix]
    for row in matrix:
        row[1] = row[0]
    p = corrcore.make_correlation(base.input_set, base.output_set, matrix)
    data = morphology.witness_to_json_dict(morphology.mono_witness(p, "S"))
    half = Fraction(1, 2)

    def member(diagonal_00, off_diagonal_01):
        # columns are the input pairs (0,0), (0,1), (1,0), (1,1) of the
        # two-point set; rows are output pairs (a, b) at 3 * a + b
        columns = [diagonal_00, off_diagonal_01, {0: half, 1: half}, {8: 1}]
        rows = [[Fraction(c.get(r, 0)) for c in columns] for r in range(9)]
        return corrcore.to_json_dict(corrcore.make_correlation(workloads.labels(2), p.input_set, rows))

    q_plus = member({0: half, 4: half}, {0: half, 1: half})
    synchronous = dict(data, q_plus=q_plus, q_minus=member({0: half, 4: half}, {1: 1}))
    workloads.check_witness(synchronous, p, "mono", "S")
    not_synchronous = dict(data, q_plus=q_plus, q_minus=member({1: half, 4: half}, {0: half, 1: half}))
    with pytest.raises(Mismatch, match="not synchronous"):
        workloads.check_witness(not_synchronous, p, "mono", "S")


def test_witness_oracle_checks_classical_models_of_hv_members():
    p = workloads.mixture(random.Random(6), 3, 2)  # rank at most 4 < 9, so not mono
    data = morphology.witness_to_json_dict(morphology.mono_witness(p, "HV"))
    workloads.check_witness(data, p, "mono", "HV")
    without_models = {k: v for k, v in data.items() if not k.startswith("model_")}
    workloads.check_witness(without_models, p, "mono", "HV")
    with pytest.raises(Mismatch, match="no classical model"):
        workloads.check_witness(dict(data, model_plus=data["model_minus"]), p, "mono", "HV")


def test_freivalds_rejects_a_wrong_product():
    rng = random.Random(4)
    q, p = workloads.random_synchronous(rng, 3, 3), workloads.random_synchronous(rng, 3, 3)
    product = category.compose(q, p).matrix
    assert workloads.freivalds_equal(product, q, p, rng)
    wrong = [list(row) for row in product]
    wrong[0][0] += Fraction(1, 7)
    assert not workloads.freivalds_equal(wrong, q, p, rng)


def test_benchmark_json_lists_the_metrics_run_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
