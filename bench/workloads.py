"""Seeded inputs, timed operations and answer checks for the three workloads.

A workload is a list of rounds; a round is a list of :class:`Case` objects
whose shape mix is fixed, while their contents come from the seed.  The run
loop in ``run.py`` times ``case.run`` and calls ``case.check`` only after the
timed loop has ended.

Every expected answer is known before the library is asked:

* classical inputs are mixtures of shared functions, or quantum-model
  correlations on three inputs and two outputs whose pairwise weights satisfy
  all sixteen triple inequalities (Pitowsky's COR(3) facets), widened by
  composing with functions, which keeps them classical;
* non-classical inputs restrict, on some three inputs and two outputs, to
  pairwise weights that violate one of the sixteen inequalities; widening by
  an injective output map or a surjective input map keeps them non-classical;
* mono/epi answers come from an independent rank oracle (sympy), composition,
  quantum evaluation and Boole transforms from small independent
  re-implementations in this file.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from syncgames import category, cli, constructors, corrcore, morphology
from syncgames.boole import triple_inequalities

ZERO = Fraction(0)
ONE = Fraction(1)

WORKLOADS = ("hv-classical", "hv-nonclassical", "cli-pipeline")

# Distinct rounds of inputs generated per workload; a run cycles through
# them.  The hv pools hold more rounds than a 30-second run completes, so
# every LP of a run is a distinct input: one LP's cost varies 2-4x between
# inputs of a shape.  CLI ops cost about the same whatever their contents,
# so two suffice.
POOL_ROUNDS = {"hv-classical": 16, "hv-nonclassical": 32, "cli-pipeline": 2}

# Ops per round of each cli-pipeline classify kind; every other kind is one
# op.  Only classify solves LPs (about 2.4 per op), so with one or two copies
# simplex.calls_per_op falls to about 0.65 or 1.0, not above 1 as the
# workload is meant to show; three give about 1.26 with the simplex still a
# minority of op time.
CLASSIFY_COPIES = 3


class Mismatch(Exception):
    """An operation's answer does not match what the oracle expects."""


@dataclass
class Case:
    """One operation: ``run(tag)`` is timed, ``check(result, tag)`` is not.

    ``tag`` is unique per executed operation, so operations that write files
    never overwrite each other before they are checked.  ``check`` raises
    :class:`Mismatch` and returns the bytes of JSON the operation read and
    wrote.
    """

    kind: str
    run: Callable[[int], object]
    check: Callable[[object, int], int]


@dataclass
class Workload:
    rounds: list[list[Case]]
    workdir: str


def labels(n: int):
    return corrcore.finite_set([str(i) for i in range(n)])


def function_correlation(f: tuple[int, ...], ny: int):
    return constructors.from_function_indices(labels(len(f)), labels(ny), f)


# ---------------------------------------------------------------------------
# Independent oracles.
# ---------------------------------------------------------------------------

_INEQUALITIES = [ineq.normal_form() for ineq in triple_inequalities().inequalities]


def pair_weights(p, triple, one):
    """Pairwise weights ``w(a, b) = p(one, one | t_a, t_b)`` on three inputs."""
    ny = p.output_set.size
    cols = p.input_set.size
    row = one * ny + one
    return [[p.matrix[row][triple[a] * cols + triple[b]] for b in range(3)] for a in range(3)]


def inequality_values(w) -> list[Fraction]:
    """Left-hand sides of the sixteen triple inequalities ``form >= 0``."""
    env = {"1": ONE}
    for a in range(3):
        for b in range(a, 3):
            env[f"w(x{a},x{b})"] = w[a][b]
    return [sum((c * env[s] for s, c in form.items()), ZERO) for form in _INEQUALITIES]


def rank(p) -> int:
    """Rank of the correlation matrix by sympy's exact elimination over QQ."""
    # Imported here, so that only the workload that uses the oracle pays for
    # sympy in its set-up time and peak memory.
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    rows = [[QQ(v.numerator, v.denominator) for v in row] for row in p.matrix]
    return DomainMatrix(rows, (p.row_count, p.column_count), QQ).rank()


def freivalds_equal(c, q, p, rng: random.Random) -> bool:
    """Whether ``c == q . p``, by comparing ``c v`` with ``q (p v)`` for random ``v``.

    A wrong product passes one trial with probability at most 2**-32.
    """
    for _ in range(2):
        v = [rng.randrange(2**32) for _ in range(p.column_count)]

        def apply(m, x):
            return [sum((a * b for a, b in zip(row, x)), ZERO) for row in m]

        if apply(c, v) != apply(q.matrix, apply(p.matrix, v)):
            return False
    return True


def quantum_entries(model) -> list[list[Fraction]]:
    """``trace(P[xa][ya] P[xb][yb]) / d`` with complex products written out."""
    d = model.dimension
    nx, ny = model.input_set.size, model.output_set.size
    out = [[ZERO] * (nx * nx) for _ in range(ny * ny)]
    for xa, xb, ya, yb in itertools.product(range(nx), range(nx), range(ny), range(ny)):
        a, b = model.pvm[xa][ya], model.pvm[xb][yb]
        re = ZERO
        for i in range(d):
            for j in range(d):
                re += a[i][j].real * b[j][i].real - a[i][j].imag * b[j][i].imag
        out[ya * ny + yb][xa * nx + xb] = re / d
    return out


def superset_sums(atoms: list[Fraction], n: int) -> list[Fraction]:
    """Intersection probabilities ``w_S = sum of atoms p_T over T containing S``."""
    values = list(atoms)
    for bit in (1 << k for k in range(n)):
        for j in range(1 << n):
            if j & bit:
                values[j ^ bit] += values[j]
    return values


def is_zero_one(p) -> bool:
    return all(v in (ZERO, ONE) for row in p.matrix for v in row)


def check_label(label, p, classical: bool) -> None:
    """The class flags of a symmetric synchronous nonsignaling input."""
    if not (label.synchronous and label.nonsignaling and label.symmetric):
        raise Mismatch("input is synchronous, nonsignaling and symmetric by construction")
    if (label.deterministic is not None) != is_zero_one(p):
        raise Mismatch("deterministic flag disagrees with the entries")
    if not label.classical_decided:
        raise Mismatch("the classical LP did not run")
    if not classical:
        if label.classical is not None:
            raise Mismatch("a model was returned for a certified non-classical input")
        return
    if label.classical is None:
        raise Mismatch("no model returned for a classical input")
    if constructors.from_classical_model(label.classical) != p:
        raise Mismatch("the returned model does not re-expand to the input")


def check_witness(data: dict, p, side: str, tag: str) -> None:
    """A witness file: two distinct members of category ``tag`` with equal
    compositions through ``p``.

    Membership is checked here rather than trusted: both members must be
    synchronous, also nonsignaling outside ``S``, and also symmetric with a
    classical model for ``Q`` and ``HV``.  An attached model must re-expand
    to its member; without one, ``classical_decomposition`` must find a model
    that does.
    """
    witness = morphology.witness_from_json_dict(data)
    if (witness.side, witness.category) != (side, tag):
        raise Mismatch(f"witness is for {witness.side}/{witness.category}, not {side}/{tag}")
    if witness.q_plus == witness.q_minus:
        raise Mismatch("witness members must differ")
    if side == "mono":
        left, right = category.compose(p, witness.q_plus), category.compose(p, witness.q_minus)
    else:
        left, right = category.compose(witness.q_plus, p), category.compose(witness.q_minus, p)
    if left != right:
        raise Mismatch("witness compositions differ")
    for q, model in ((witness.q_plus, witness.model_plus), (witness.q_minus, witness.model_minus)):
        if not category.is_synchronous(q):
            raise Mismatch("witness member is not synchronous")
        if tag != "S" and not category.is_nonsignaling(q):
            raise Mismatch(f"witness member is not nonsignaling, so not in {tag}")
        if tag in ("Q", "HV"):
            if not category.is_symmetric(q):
                raise Mismatch(f"witness member is not symmetric, so not in {tag}")
            if model is None:
                model = category.classical_decomposition(q)
            if model is None or constructors.from_classical_model(model) != q:
                raise Mismatch(f"witness member has no classical model, so not in {tag}")
        elif model is not None and constructors.from_classical_model(model) != q:
            raise Mismatch("attached model does not re-expand to its witness member")


# ---------------------------------------------------------------------------
# Input generators.
# ---------------------------------------------------------------------------


def mixture(rng: random.Random, nx: int, ny: int):
    """A classical mixture of up to eight distinct shared functions, weights k/total."""
    chosen: set[tuple[int, ...]] = set()
    while len(chosen) < min(8, ny**nx):
        chosen.add(tuple(rng.randrange(ny) for _ in range(nx)))
    raw = {f: rng.randint(1, 8) for f in sorted(chosen)}
    total = sum(raw.values())
    model = constructors.classical_model(
        labels(nx), labels(ny), {f: Fraction(k, total) for f, k in raw.items()}
    )
    return constructors.from_classical_model(model)


def quantum_base(rng: random.Random, d: int):
    """A 3 -> 2 quantum-model correlation certified classical by the sixteen inequalities."""
    while True:
        model = constructors.random_quantum_model(labels(3), labels(2), d, rng.randrange(2**31))
        p = constructors.from_quantum_model(model)
        if min(inequality_values(pair_weights(p, (0, 1, 2), 1))) >= 0:
            return p


def ns_weights(rng: random.Random, n: int):
    """Pairwise weights on ``n`` inputs meeting the nonsignaling conditions."""
    diag = [Fraction(rng.randint(3, 9), 12) for _ in range(n)]
    w = [[ZERO] * n for _ in range(n)]
    for a in range(n):
        w[a][a] = diag[a]
        for b in range(a):
            low = max(ZERO, diag[a] + diag[b] - ONE)
            high = min(diag[a], diag[b])
            w[a][b] = w[b][a] = low + (high - low) * Fraction(rng.randint(0, 6), 6)
    return corrcore.PairWeights(labels(n), tuple(map(tuple, w)))


def violating_weights(rng: random.Random, n: int):
    """Nonsignaling pairwise weights on ``n`` inputs that violate a triple inequality."""
    while True:
        w = ns_weights(rng, n).matrix
        for triple in itertools.combinations(range(n), 3):
            if min(inequality_values([[w[i][j] for j in triple] for i in triple])) < 0:
                return corrcore.PairWeights(labels(n), w)


def surjection(rng: random.Random, n: int, m: int = 3) -> tuple[int, ...]:
    values = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
    rng.shuffle(values)
    return tuple(values)


def widen(rng: random.Random, p, ny: int = 2, nx: Optional[int] = None):
    """``G . p . S`` for an injective output map G into ``ny`` labels and a
    surjective input map S from ``nx`` labels; also returns, for the
    certificate, the image of output 1 and one preimage of each input."""
    g = tuple(rng.sample(range(ny), 2)) if ny > 2 else (0, 1)
    if ny > 2:
        p = category.compose(function_correlation(g, ny), p)
    section = list(range(p.input_set.size))
    if nx is not None and nx > p.input_set.size:
        s = surjection(rng, nx, p.input_set.size)
        p = category.compose(p, function_correlation(s, p.input_set.size))
        section = [s.index(x) for x in range(len(section))]
    return p, g[1], section


def certify_nonclassical(p, one: int, section: list[int]) -> str:
    """Find a triple of inputs whose two-output restriction violates an inequality."""
    for triple in itertools.combinations(section, 3):
        values = inequality_values(pair_weights(p, triple, one))
        if min(values) < 0:
            k = values.index(min(values))
            return f"inputs {triple}, inequality {k}: {values[k]} < 0"
    raise RuntimeError("generated input carries no triple-inequality certificate")


# ---------------------------------------------------------------------------
# hv-classical and hv-nonclassical.
# ---------------------------------------------------------------------------


def classify_case(kind: str, p, classical: bool) -> Case:
    def run(tag):
        return category.classify(p)

    def check(label, tag):
        check_label(label, p, classical)
        return 0

    return Case(kind, run, check)


def hv_classical_round(rng: random.Random, d: int) -> list[Case]:
    """One op per shape and input kind: a mixture, and a quantum correlation
    at dimension ``d`` widened to the shape."""
    q = quantum_base(rng, d)
    cases = []
    for nx, ny in ((3, 2), (4, 2), (3, 3), (5, 2), (3, 4), (4, 3)):
        cases.append(classify_case(f"mixture {nx}->{ny}", mixture(rng, nx, ny), True))
        cases.append(classify_case(f"quantum {nx}->{ny}", widen(rng, q, ny, nx)[0], True))
    return cases


# (base inputs, widened outputs, widened inputs), one op per shape; the 4->3
# op alternates between widening only the outputs of a 4-input base and
# widening both sides of a 3-input base.
_NONCLASSICAL_SHAPES = (
    (3, 2, None), (4, 2, None), (5, 2, None), (6, 2, None), (3, 3, None), (3, 4, None),
)
_NONCLASSICAL_4_3 = ((4, 3, None), (3, 3, 4))


def hv_nonclassical_round(rng: random.Random, index: int) -> list[Case]:
    cases = []
    for base, ny, nx in _NONCLASSICAL_SHAPES + (_NONCLASSICAL_4_3[index % 2],):
        w = violating_weights(rng, base)
        p, one, section = widen(rng, constructors.two_output_nonsignaling(w), ny, nx)
        certify_nonclassical(p, one, section)
        shape = f"{p.input_set.size}->{p.output_set.size}"
        cases.append(classify_case(f"nonclassical {shape}", p, False))
    return cases


# ---------------------------------------------------------------------------
# cli-pipeline.
# ---------------------------------------------------------------------------


def random_synchronous(rng: random.Random, nx: int, ny: int):
    """Synchronous, generically full rank: diagonal columns on the output diagonal."""

    def weights(count):
        raw = [rng.randint(1, 9) for _ in range(count)]
        return [Fraction(v, sum(raw)) for v in raw]

    matrix = [[ZERO] * (nx * nx) for _ in range(ny * ny)]
    for xa, xb in itertools.product(range(nx), repeat=2):
        c = xa * nx + xb
        if xa == xb:
            for y, v in enumerate(weights(ny)):
                matrix[y * ny + y][c] = v
        else:
            for r, v in enumerate(weights(ny * ny)):
                matrix[r][c] = v
    return corrcore.make_correlation(labels(nx), labels(ny), matrix)


def through_two_points(rng: random.Random, nx: int, ny: int):
    """A nonsignaling correlation factored through a two-point set (rank <= 4)."""
    inner = constructors.two_output_nonsignaling(ns_weights(rng, nx))
    raw = [[rng.randint(1, 5) for _ in range(ny)] for _ in range(ny)]
    total = sum(map(sum, raw))
    u = corrcore.PairDistribution(
        labels(ny), tuple(tuple(Fraction(v, total) for v in row) for row in raw)
    )
    outer = constructors.two_input_nonsignaling(u, u.transpose())
    outer = corrcore.Correlation(labels(2), labels(ny), outer.matrix)
    return category.compose(outer, inner)


def random_atoms(rng: random.Random, n: int) -> list[Fraction]:
    raw = [rng.randint(0, 8) for _ in range(1 << n)]
    total = sum(raw)
    return [Fraction(v, total) for v in raw]


def call_cli(argv: list[str]):
    """One in-process CLI call: exit code, stdout text and stderr text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CliFiles:
    """Writes the prepared inputs and names per-operation outputs."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def write(self, name: str, text: str) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"in{self.count:03d}-{name}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def correlation(self, name: str, p) -> str:
        return self.write(name, corrcore.serialize(p) + "\n")

    def out(self, tag: int, name: str = "out.json") -> str:
        return os.path.join(self.workdir, f"op{tag:06d}-{name}")


def _size(path: str) -> int:
    return os.path.getsize(path)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _expect_code(result, code: int) -> None:
    got, _, err = result
    if got != code:
        raise Mismatch(f"exit code {got}, expected {code}: {err.strip()[:200]}")


def witness_case(files: CliFiles, side: str, tag: str, p, path: str) -> Case:
    r = rank(p)
    holds = r == (p.column_count if side == "mono" else p.row_count)

    def run(op):
        return call_cli(["witness", side, path, "--category", tag, "--out", files.out(op)])

    def check(result, op):
        _expect_code(result, 1 if holds else 0)
        moved = _size(path) + len(result[1])
        if holds:
            if json.loads(result[1]) != {"side": side, "category": tag, "holds": True}:
                raise Mismatch(f"unexpected 'holds' line {result[1]!r}")
            return moved
        text = _read(files.out(op))
        check_witness(json.loads(text), p, side, tag)
        return moved + len(text)

    kind = f"witness {side} {tag} {p.input_set.size}->{p.output_set.size}"
    return Case(kind, run, check)


def compose_case(files: CliFiles, rng: random.Random, outer, inner) -> Case:
    paths = files.correlation("outer", outer), files.correlation("inner", inner)
    trials = random.Random(rng.random())

    def run(op):
        return call_cli(["compose", *paths, "--out", files.out(op)])

    def check(result, op):
        _expect_code(result, 0)
        text = _read(files.out(op))
        got = corrcore.deserialize(text)
        if not freivalds_equal(got.matrix, outer, inner, trials):
            raise Mismatch("composition differs from the product of the inputs")
        return sum(map(_size, paths)) + len(text)

    return Case("compose 6->6", run, check)


def classify_cli_case(files: CliFiles, kind: str, p) -> Case:
    path = files.correlation("classify", p)
    r = rank(p)
    mono, epi = r == p.column_count, r == p.row_count

    def run(op):
        return call_cli(["classify", path, "--emit-witnesses", files.out(op, "wit")])

    def check(result, op):
        _expect_code(result, 0)
        report = json.loads(result[1])
        flags = ("synchronous", "nonsignaling", "symmetric", "classical")
        if not all(report[f] for f in flags) or report["deterministic"]:
            raise Mismatch(f"class flags wrong for a classical input: {report}")
        moved = _size(path) + len(result[1])
        for tag in ("S", "NS", "Q", "HV"):
            row = report["categories"][tag]
            if not row["member"] or (row["monomorphism"], row["epimorphism"]) != (mono, epi):
                raise Mismatch(f"{tag} row disagrees with the rank oracle: {row}")
            for side, holds in (("mono", mono), ("epi", epi)):
                written = report["witnesses"].get(f"{side}_{tag}")
                if holds != (written is None):
                    raise Mismatch(f"{side}_{tag} witness presence is wrong")
                if written is not None:
                    text = _read(written)
                    check_witness(json.loads(text), p, side, tag)
                    moved += len(text)
        return moved

    return Case(kind, run, check)


def quantum_case(files: CliFiles, rng: random.Random, nx: int, ny: int, d: int) -> Case:
    model = constructors.random_quantum_model(labels(nx), labels(ny), d, rng.randrange(2**31))
    path = files.write("qmodel", json.dumps(constructors.quantum_model_to_json_dict(model)))
    expected = quantum_entries(model)

    def run(op):
        return call_cli(["construct", "quantum", path, "--out", files.out(op)])

    def check(result, op):
        _expect_code(result, 0)
        text = _read(files.out(op))
        if [list(row) for row in corrcore.deserialize(text).matrix] != expected:
            raise Mismatch("quantum evaluation differs from the independent trace")
        return _size(path) + len(text)

    return Case(f"construct quantum d={d}", run, check)


def boole_cases(files: CliFiles, rng: random.Random, n: int) -> list[Case]:
    """``p2w`` on random atoms, and ``w2p`` on their intersection probabilities."""
    atoms = random_atoms(rng, n)
    sums = superset_sums(atoms, n)
    cases = []
    for direction, source, interpretation in (
        ("p2w", atoms, "atoms"),
        ("w2p", sums, "intersections"),
    ):
        data = {"n": n, "interpretation": interpretation, "entries": [str(v) for v in source]}
        path = files.write(direction, json.dumps(data))

        def run(op, path=path, direction=direction):
            return call_cli(
                ["boole", "transform", path, "--direction", direction, "--out", files.out(op)]
            )

        def check(result, op, path=path, direction=direction):
            _expect_code(result, 0)
            text = _read(files.out(op))
            data = json.loads(text)
            got = [Fraction(v) for v in data["entries"]]
            if direction == "p2w":
                ok = got == sums and data["interpretation"] == "intersections"
            else:
                ok = got == atoms and data["feasible"] and data["negative_indices"] == []
            if not ok:
                raise Mismatch(f"boole {direction} differs from the independent transform")
            return _size(path) + len(text)

        cases.append(Case(f"boole {direction} n={n}", run, check))
    return cases


def cli_round(rng: random.Random, files: CliFiles) -> list[Case]:
    sync5, sync6 = random_synchronous(rng, 5, 5), random_synchronous(rng, 6, 6)
    rect56, rect65 = random_synchronous(rng, 5, 6), random_synchronous(rng, 6, 5)
    ns5, ns6 = through_two_points(rng, 5, 5), through_two_points(rng, 6, 6)
    path = {name: files.correlation(name, p) for name, p in (
        ("sync5", sync5), ("sync6", sync6), ("rect56", rect56),
        ("rect65", rect65), ("ns5", ns5), ("ns6", ns6),
    )}
    cases = [
        witness_case(files, "mono", "S", sync6, path["sync6"]),
        witness_case(files, "epi", "S", sync5, path["sync5"]),
        witness_case(files, "mono", "NS", ns6, path["ns6"]),
        witness_case(files, "epi", "NS", ns5, path["ns5"]),
        witness_case(files, "epi", "S", ns6, path["ns6"]),
        witness_case(files, "mono", "S", ns5, path["ns5"]),
        witness_case(files, "epi", "S", rect56, path["rect56"]),
        witness_case(files, "mono", "S", rect56, path["rect56"]),
        witness_case(files, "mono", "S", rect65, path["rect65"]),
        witness_case(files, "epi", "S", rect65, path["rect65"]),
        compose_case(files, rng, random_synchronous(rng, 6, 6), sync6),
    ]
    # Every kind is one op per round, except that each classify kind is
    # CLASSIFY_COPIES ops; see there.
    for copy in range(CLASSIFY_COPIES):
        q = quantum_base(rng, 3 + copy % 2)
        for kind, p in (
            ("classify mixture 3->2", mixture(rng, 3, 2)),
            ("classify quantum 3->2", q),
            ("classify mixture 4->2", mixture(rng, 4, 2)),
            ("classify quantum 4->2", widen(rng, q, nx=4)[0]),
            ("classify mixture 3->3", mixture(rng, 3, 3)),
            ("classify quantum 3->3", widen(rng, q, ny=3)[0]),
        ):
            cases.append(classify_cli_case(files, kind, p))
    cases += [quantum_case(files, rng, nx, ny, d) for nx, ny, d in ((3, 2, 2), (3, 3, 3), (4, 3, 4))]
    cases += boole_cases(files, rng, 12)
    return cases


def build(name: str, seed: int, workdir: str) -> Workload:
    """Generate every input of ``name`` from ``seed``; files go under ``workdir``."""
    rng = random.Random(f"{name}/{seed}")
    workload = Workload([], workdir)
    if name == "hv-classical":
        workload.rounds = [
            hv_classical_round(rng, 3 + r % 2) for r in range(POOL_ROUNDS[name])
        ]
    elif name == "hv-nonclassical":
        workload.rounds = [hv_nonclassical_round(rng, r) for r in range(POOL_ROUNDS[name])]
    elif name == "cli-pipeline":
        files = CliFiles(workdir)
        workload.rounds = [cli_round(rng, files) for _ in range(POOL_ROUNDS[name])]
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return workload
