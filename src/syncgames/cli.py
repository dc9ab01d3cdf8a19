"""Command line front end.

Commands: ``classify``, ``compose``, ``construct``, ``witness`` and
``boole``.  Every payload is JSON with rationals written as strings such
as ``"3/4"``; outputs default to stdout (``--out -``).

Exit codes are a stable contract: 0 success; 1 a witness was requested
but the property holds; 2 parse failure; 3 size guard violation; 4
operand shape or set mismatch; 5 any other domain error.  Errors are
reported as a single JSON line on stderr.

``classify``, ``witness`` and ``construct random`` refuse sets larger
than the size guard (default 6, flag ``--max-size``, env var
``SYNCGAMES_MAX_SIZE``).  Deciding HV membership solves a linear program
with one column per function ``X -> Y``, ``|Y| ** |X|`` of them, and a
random classical model draws one weight per such function.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .boole import (
    ATOMS,
    INTERSECTIONS,
    BooleVector,
    atoms_to_intersections,
    boole_vector,
    intersections_to_atoms,
    pair_bounds,
    triple_bounds,
    triple_inequalities,
)
from .category import compose
from .constructors import (
    RANDOM_KINDS,
    classical_model_from_json_dict,
    classical_model_to_json_dict,
    from_classical_model,
    from_deterministic_pair,
    from_function,
    from_quantum_model,
    quantum_model_from_json_dict,
    random_correlation,
    two_input_classical,
    two_input_nonsignaling,
    two_output_classical,
    two_output_nonsignaling,
)
from .corrcore import (
    Correlation,
    DeterministicPair,
    FiniteSet,
    PairDistribution,
    PairWeights,
    _column_texts,
    _parse_json,
    deserialize,
    format_rational,
    parse_labels,
    parse_rational,
    serialize,
    to_json_dict,
)
from .errors import (
    ParseError,
    SetMismatchError,
    ShapeMismatchError,
    SyncGamesError,
)
from .morphology import (
    CategoryTag,
    analyze,
    epi_witness,
    is_bimorphism,
    is_epimorphism,
    is_isomorphism,
    is_member,
    is_monomorphism,
    is_retraction,
    is_section,
    mono_witness,
    witness_to_json_dict,
)

GUARD_DEFAULT = 6


class _GuardViolation(Exception):
    pass


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _dump(data) -> str:
    return json.dumps(data, indent=1) + "\n"


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(path, str(exc)) from None


def _read_json(path: str):
    return _parse_json(_read_text(path), path)


def _load_correlation(path: str) -> Correlation:
    return deserialize(_read_text(path))


def _parse_labels(text: str, option: str) -> FiniteSet:
    labels = tuple(part.strip() for part in text.split(","))
    if any(not label for label in labels):
        raise ParseError(option, "labels must be nonempty, comma separated")
    return parse_labels(labels, option)


def _load_labeled_matrix(path: str) -> tuple[FiniteSet, tuple[tuple, ...]]:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ParseError(path, "expected a JSON object")
    labels = parse_labels(data.get("labels"), "labels")
    raw = data.get("entries")
    if not isinstance(raw, list):
        raise ParseError("entries", "expected a list of rows")
    rows = []
    for i, raw_row in enumerate(raw):
        if not isinstance(raw_row, list):
            raise ParseError(f"entries[{i}]", "expected a list")
        rows.append(
            tuple(parse_rational(cell, f"entries[{i}][{j}]") for j, cell in enumerate(raw_row))
        )
    return labels, tuple(rows)


def _load_pair_distribution(path: str) -> PairDistribution:
    base, matrix = _load_labeled_matrix(path)
    return PairDistribution(base, matrix)


def _load_pair_weights(path: str) -> PairWeights:
    base, matrix = _load_labeled_matrix(path)
    return PairWeights(base, matrix)


def _load_boole_vector(path: str) -> BooleVector:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ParseError(path, "expected a JSON object")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError("n", "expected an integer")
    interpretation = data.get("interpretation")
    if interpretation not in (ATOMS, INTERSECTIONS):
        raise ParseError("interpretation", "expected 'atoms' or 'intersections'")
    raw = data.get("entries")
    if not isinstance(raw, list):
        raise ParseError("entries", "expected a list")
    try:
        return boole_vector(n, interpretation, raw)
    except (ValueError, ZeroDivisionError, TypeError):
        # Only reading a cell raises these: locate the first cell that fails.
        for j, cell in enumerate(raw):
            parse_rational(cell, f"entries[{j}]")
        raise


def _boole_vector_json(vec: BooleVector) -> dict:
    return {
        "n": vec.n,
        "interpretation": vec.interpretation,
        "entries": _column_texts(vec.denominator, vec.numerators),
    }


def _guard_limit(args) -> int:
    limit = GUARD_DEFAULT
    raw = os.environ.get("SYNCGAMES_MAX_SIZE")
    if raw is not None:
        try:
            limit = int(raw)
        except ValueError:
            raise ParseError("SYNCGAMES_MAX_SIZE", f"not an integer: {raw!r}") from None
    if getattr(args, "max_size", None) is not None:
        limit = args.max_size
    if limit > GUARD_DEFAULT:
        print(
            f"warning: size guard raised to {limit}; the HV linear program "
            "has |Y|**|X| columns and may be slow",
            file=sys.stderr,
        )
    return limit


def _check_guard(limit: int, *sizes: int) -> None:
    for size in sizes:
        if size > limit:
            raise _GuardViolation(
                f"set size {size} exceeds the guard {limit}; raise --max-size to allow"
            )


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

_REPORT_PROPERTIES = {
    "section": is_section,
    "retraction": is_retraction,
    "monomorphism": is_monomorphism,
    "epimorphism": is_epimorphism,
    "bimorphism": is_bimorphism,
    "isomorphism": is_isomorphism,
}


def _report_table(report: dict) -> str:
    lines = [
        "input set:     " + " ".join(report["input_set"]),
        "output set:    " + " ".join(report["output_set"]),
    ]
    for flag in ("synchronous", "nonsignaling", "symmetric", "deterministic", "classical"):
        lines.append(f"{flag + ':':15}{'yes' if report[flag] else 'no'}")
    header = f"{'category':10}{'member':8}" + "".join(
        f"{name:14}" for name in _REPORT_PROPERTIES
    )
    lines.append(header.rstrip())
    for tag in ("S", "NS", "Q", "HV"):
        row = report["categories"][tag]
        cells = f"{tag:10}" + f"{'yes' if row['member'] else 'no':8}"
        for name in _REPORT_PROPERTIES:
            value = row.get(name)
            cells += f"{'-' if value is None else 'yes' if value else 'no':14}"
        lines.append(cells.rstrip())
    return "\n".join(lines) + "\n"


def _cmd_classify(args) -> int:
    limit = _guard_limit(args)
    p = _load_correlation(args.path)
    _check_guard(limit, p.input_set.size, p.output_set.size)
    emit = args.emit_witnesses
    if emit is not None:
        os.makedirs(emit, exist_ok=True)
    a = analyze(p)
    categories = {}
    witnesses = {}
    for tag in CategoryTag:
        row = categories[tag.value] = {"member": is_member(a, tag)}
        if not row["member"]:
            continue
        for name, decide in _REPORT_PROPERTIES.items():
            row[name] = decide(a, tag)
        if emit is None:
            continue
        for side, finder in (("mono", mono_witness), ("epi", epi_witness)):
            witness = finder(a, tag)
            if witness is not None:
                key = f"{side}_{tag.value}"
                witnesses[key] = os.path.join(emit, f"{key}.json")
                _write_output(witnesses[key], _dump(witness_to_json_dict(witness)))
    report = {
        "input_set": list(p.input_set.labels),
        "output_set": list(p.output_set.labels),
        "synchronous": a.synchronous,
        "nonsignaling": a.nonsignaling,
        "symmetric": a.symmetric,
        "deterministic": a.deterministic is not None,
        "classical": a.classical is not None,
        "categories": categories,
    }
    if emit is not None:
        report["witnesses"] = witnesses
    if args.format == "table":
        sys.stdout.write(_report_table(report))
    else:
        sys.stdout.write(_dump(report))
    return 0


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------


def _cmd_compose(args) -> int:
    outer = _load_correlation(args.outer)
    inner = _load_correlation(args.inner)
    result = compose(outer, inner)
    _write_output(args.out, serialize(result) + "\n")
    return 0


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def _parse_map(text: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for item in text.split(","):
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise ParseError("--map", f"expected 'input:output' items, got {item!r}")
        key = parts[0].strip()
        value = parts[1].strip()
        if key in mapping:
            raise ParseError("--map", f"duplicate input label {key!r}")
        mapping[key] = value
    if not mapping:
        raise ParseError("--map", "empty map")
    return mapping


def _cmd_construct_function(args) -> int:
    mapping = _parse_map(args.map)
    if args.inputs is not None:
        input_set = _parse_labels(args.inputs, "--inputs")
    else:
        input_set = FiniteSet(tuple(mapping))
    if args.outputs is not None:
        output_set = _parse_labels(args.outputs, "--outputs")
    else:
        seen: list[str] = []
        for value in mapping.values():
            if value not in seen:
                seen.append(value)
        output_set = FiniteSet(tuple(seen))
    correlation = from_function(input_set, output_set, mapping)
    _write_output(args.out, serialize(correlation) + "\n")
    return 0


def _cmd_construct_pair(args) -> int:
    data = _read_json(args.path)
    if not isinstance(data, dict):
        raise ParseError(args.path, "expected a JSON object")
    for key in ("input_set", "output_set", "f_a", "f_b"):
        if key not in data:
            raise ParseError(key, "missing field")
    input_set = parse_labels(data["input_set"], "input_set")
    output_set = parse_labels(data["output_set"], "output_set")

    def table(key: str) -> tuple[tuple[int, ...], ...]:
        raw = data[key]
        if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
            raise ParseError(key, "expected a list of rows of integers")
        for r, row in enumerate(raw):
            for c, v in enumerate(row):
                # JSON true/false arrive as bool, which is a subclass of int.
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ParseError(
                        f"{key}[{r}][{c}]", f"expected an integer, got {json.dumps(v)}"
                    )
        return tuple(tuple(row) for row in raw)

    pair = DeterministicPair(
        input_set,
        output_set,
        table("f_a"),
        table("f_b"),
    )
    _write_output(args.out, serialize(from_deterministic_pair(pair)) + "\n")
    return 0


def _cmd_construct_mixture(args) -> int:
    model = classical_model_from_json_dict(_read_json(args.path))
    _write_output(args.out, serialize(from_classical_model(model)) + "\n")
    return 0


def _cmd_construct_quantum(args) -> int:
    model = quantum_model_from_json_dict(_read_json(args.path))
    _write_output(args.out, serialize(from_quantum_model(model)) + "\n")
    return 0


def _cmd_construct_two_input_ns(args) -> int:
    u = _load_pair_distribution(args.u)
    v = _load_pair_distribution(args.v)
    _write_output(args.out, serialize(two_input_nonsignaling(u, v)) + "\n")
    return 0


def _cmd_construct_two_input_classical(args) -> int:
    u = _load_pair_distribution(args.u)
    _write_output(args.out, serialize(two_input_classical(u)) + "\n")
    return 0


def _cmd_construct_two_output_ns(args) -> int:
    w = _load_pair_weights(args.w)
    _write_output(args.out, serialize(two_output_nonsignaling(w)) + "\n")
    return 0


def _cmd_construct_two_output_classical(args) -> int:
    w = _load_pair_weights(args.w)
    model, correlation = two_output_classical(w)
    payload = {
        "model": classical_model_to_json_dict(model),
        "correlation": to_json_dict(correlation),
    }
    _write_output(args.out, _dump(payload))
    return 0


def _cmd_construct_random(args) -> int:
    limit = _guard_limit(args)
    input_set = _parse_labels(args.inputs, "--inputs")
    output_set = _parse_labels(args.outputs, "--outputs")
    _check_guard(limit, input_set.size, output_set.size)
    correlation = random_correlation(args.kind, input_set, output_set, args.seed)
    _write_output(args.out, serialize(correlation) + "\n")
    return 0


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def _cmd_witness(args) -> int:
    limit = _guard_limit(args)
    p = _load_correlation(args.path)
    _check_guard(limit, p.input_set.size, p.output_set.size)
    finder = mono_witness if args.property == "mono" else epi_witness
    witness = finder(p, args.category)
    if witness is None:
        sys.stdout.write(
            json.dumps(
                {"side": args.property, "category": args.category, "holds": True}
            )
            + "\n"
        )
        return 1
    _write_output(args.out, _dump(witness_to_json_dict(witness)))
    return 0


# ---------------------------------------------------------------------------
# boole
# ---------------------------------------------------------------------------


def _cmd_boole_pair_bounds(args) -> int:
    a = parse_rational(args.a, "--a")
    b = parse_rational(args.b, "--b")
    lower, upper = pair_bounds(a, b)
    sys.stdout.write(
        _dump({"lower": format_rational(lower), "upper": format_rational(upper)})
    )
    return 0


def _cmd_boole_triple_bounds(args) -> int:
    w = _load_pair_weights(args.w)
    bounds = triple_bounds(w)
    lower, upper = bounds.interval()
    sys.stdout.write(
        _dump(
            {
                "lowers": [format_rational(v) for v in bounds.lowers],
                "uppers": [format_rational(v) for v in bounds.uppers],
                "lower": format_rational(lower),
                "upper": format_rational(upper),
                "feasible": bounds.feasible,
            }
        )
    )
    return 0


def _cmd_boole_triple_inequalities(args) -> int:
    system = triple_inequalities()
    if args.json:
        sys.stdout.write(_dump(system.to_json_list()))
    else:
        sys.stdout.write("\n".join(system.text_lines()) + "\n")
    return 0


def _cmd_boole_transform(args) -> int:
    vec = _load_boole_vector(args.path)
    if args.direction == "p2w":
        if vec.interpretation != ATOMS:
            raise ParseError("interpretation", "p2w expects an atoms vector")
        result = atoms_to_intersections(vec)
        _write_output(args.out, _dump(_boole_vector_json(result)))
        return 0
    if vec.interpretation != INTERSECTIONS:
        raise ParseError("interpretation", "w2p expects an intersections vector")
    reconstruction = intersections_to_atoms(vec)
    payload = {
        "n": reconstruction.n,
        "entries": _column_texts(reconstruction.denominator, reconstruction.numerators),
        "feasible": reconstruction.feasible,
        "negative_indices": list(reconstruction.negative_indices),
    }
    _write_output(args.out, _dump(payload))
    return 0


def _cmd_boole_reconstruct(args) -> int:
    vec = _load_boole_vector(args.path)
    if vec.interpretation != INTERSECTIONS:
        raise ParseError("interpretation", "reconstruct expects an intersections vector")
    reconstruction = intersections_to_atoms(vec)
    payload = {
        "n": reconstruction.n,
        "feasible": reconstruction.feasible,
        "negative_indices": list(reconstruction.negative_indices),
    }
    if reconstruction.feasible:
        payload["atoms"] = _boole_vector_json(reconstruction.atoms())
    else:
        payload["entries"] = _column_texts(reconstruction.denominator, reconstruction.numerators)
    _write_output(args.out, _dump(payload))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default="-", help="output file, or - for stdout")


def _add_max_size(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-size",
        type=int,
        default=None,
        help=f"size guard (default {GUARD_DEFAULT}; env SYNCGAMES_MAX_SIZE)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncgames",
        description="exact synchronous-correlation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="class flags and morphology report")
    p_classify.add_argument("path", help="correlation JSON file")
    p_classify.add_argument("--format", choices=("json", "table"), default="json")
    p_classify.add_argument(
        "--emit-witnesses",
        metavar="DIR",
        default=None,
        help="write mono/epi witness files for every failed property",
    )
    _add_max_size(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_compose = sub.add_parser("compose", help="compose two correlations")
    p_compose.add_argument("outer", help="correlation applied second")
    p_compose.add_argument("inner", help="correlation applied first")
    _add_out(p_compose)
    p_compose.set_defaults(func=_cmd_compose)

    p_construct = sub.add_parser("construct", help="build correlation files")
    construct_sub = p_construct.add_subparsers(dest="kind", required=True)

    c_function = construct_sub.add_parser("function", help="shared deterministic function")
    c_function.add_argument("--map", required=True, help="e.g. 'x0:0,x1:1'")
    c_function.add_argument("--inputs", default=None, help="input labels, comma separated")
    c_function.add_argument("--outputs", default=None, help="output labels, comma separated")
    _add_out(c_function)
    c_function.set_defaults(func=_cmd_construct_function)

    c_pair = construct_sub.add_parser("pair", help="deterministic pair of answer tables")
    c_pair.add_argument("path", help="JSON file with input_set, output_set, f_a, f_b")
    _add_out(c_pair)
    c_pair.set_defaults(func=_cmd_construct_pair)

    c_mixture = construct_sub.add_parser("mixture", help="mixture of shared functions")
    c_mixture.add_argument("path", help="classical model JSON file")
    _add_out(c_mixture)
    c_mixture.set_defaults(func=_cmd_construct_mixture)

    c_quantum = construct_sub.add_parser("quantum", help="tracial projective model")
    c_quantum.add_argument("path", help="quantum model JSON file")
    _add_out(c_quantum)
    c_quantum.set_defaults(func=_cmd_construct_quantum)

    c_ti_ns = construct_sub.add_parser(
        "two-input-ns", help="two-input nonsignaling from distributions u, v"
    )
    c_ti_ns.add_argument("--u", required=True, help="pair distribution JSON file")
    c_ti_ns.add_argument("--v", required=True, help="pair distribution JSON file")
    _add_out(c_ti_ns)
    c_ti_ns.set_defaults(func=_cmd_construct_two_input_ns)

    c_ti_cl = construct_sub.add_parser(
        "two-input-classical", help="two-input classical from distribution u"
    )
    c_ti_cl.add_argument("--u", required=True, help="pair distribution JSON file")
    _add_out(c_ti_cl)
    c_ti_cl.set_defaults(func=_cmd_construct_two_input_classical)

    c_to_ns = construct_sub.add_parser(
        "two-output-ns", help="two-output nonsignaling from pairwise weights"
    )
    c_to_ns.add_argument("--w", required=True, help="pair weights JSON file")
    _add_out(c_to_ns)
    c_to_ns.set_defaults(func=_cmd_construct_two_output_ns)

    c_to_cl = construct_sub.add_parser(
        "two-output-classical", help="two-output classical model and correlation from weights"
    )
    c_to_cl.add_argument("--w", required=True, help="pair weights JSON file")
    _add_out(c_to_cl)
    c_to_cl.set_defaults(func=_cmd_construct_two_output_classical)

    c_random = construct_sub.add_parser("random", help="seeded random correlation")
    c_random.add_argument("--kind", choices=RANDOM_KINDS, required=True)
    c_random.add_argument("--inputs", required=True, help="input labels, comma separated")
    c_random.add_argument("--outputs", required=True, help="output labels, comma separated")
    c_random.add_argument("--seed", type=int, default=0)
    _add_max_size(c_random)
    _add_out(c_random)
    c_random.set_defaults(func=_cmd_construct_random)

    p_witness = sub.add_parser("witness", help="mono/epi failure certificates")
    p_witness.add_argument("property", choices=("mono", "epi"))
    p_witness.add_argument("path", help="correlation JSON file")
    p_witness.add_argument(
        "--category", choices=tuple(tag.value for tag in CategoryTag), required=True
    )
    _add_max_size(p_witness)
    _add_out(p_witness)
    p_witness.set_defaults(func=_cmd_witness)

    p_boole = sub.add_parser("boole", help="inclusion-exclusion toolkit")
    boole_sub = p_boole.add_subparsers(dest="subcommand", required=True)

    b_pair = boole_sub.add_parser("pair-bounds", help="sharp two-event bounds")
    b_pair.add_argument("--a", required=True, help="probability of the first event")
    b_pair.add_argument("--b", required=True, help="probability of the second event")
    b_pair.set_defaults(func=_cmd_boole_pair_bounds)

    b_triple = boole_sub.add_parser(
        "triple-bounds", help="sharp bounds on the triple intersection"
    )
    b_triple.add_argument("--w", required=True, help="3x3 pair weights JSON file")
    b_triple.set_defaults(func=_cmd_boole_triple_bounds)

    b_ineq = boole_sub.add_parser(
        "triple-inequalities", help="the sixteen triple-intersection inequalities"
    )
    b_ineq.add_argument("--json", action="store_true")
    b_ineq.set_defaults(func=_cmd_boole_triple_inequalities)

    b_transform = boole_sub.add_parser(
        "transform", help="atoms/intersections basis change"
    )
    b_transform.add_argument("path", help="Boole vector JSON file")
    b_transform.add_argument("--direction", choices=("p2w", "w2p"), required=True)
    _add_out(b_transform)
    b_transform.set_defaults(func=_cmd_boole_transform)

    b_reconstruct = boole_sub.add_parser(
        "reconstruct", help="recover atoms from intersections, with feasibility verdict"
    )
    b_reconstruct.add_argument("path", help="intersections vector JSON file")
    _add_out(b_reconstruct)
    b_reconstruct.set_defaults(func=_cmd_boole_reconstruct)

    return parser


# Built once, on import: no default depends on state that can change between
# calls (the size guard reads SYNCGAMES_MAX_SIZE when a command runs).
_PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        _emit_error("ParseError", str(exc))
        return 2
    except _GuardViolation as exc:
        _emit_error("SizeGuard", str(exc))
        return 3
    except (SetMismatchError, ShapeMismatchError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 4
    except SyncGamesError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 5


if __name__ == "__main__":
    sys.exit(main())
