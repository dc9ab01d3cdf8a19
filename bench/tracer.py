"""Spans around calls into the library's layers, installed from outside.

A module that does ``from .simplex import find_nonnegative_combination`` holds
its own binding of the function, so a wrapper has to replace every binding of
the same function object in every ``syncgames`` module.  :meth:`Tracer.install`
does that and :meth:`Tracer.uninstall` puts the originals back.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

# (defining module, public function, span name).  Several functions may share
# a span name; their self-times add up in that layer.
TARGETS = (
    ("syncgames.simplex", "find_nonnegative_combination", "simplex.solve"),
    ("syncgames.category", "classical_decomposition", "category.decompose"),
    ("syncgames.category", "compose", "category.compose"),
    ("syncgames.category", "is_synchronous", "category.predicates"),
    ("syncgames.category", "is_nonsignaling", "category.predicates"),
    ("syncgames.category", "is_symmetric", "category.predicates"),
    ("syncgames.category", "is_deterministic", "category.predicates"),
    ("syncgames.morphology", "right_nullspace_basis", "morphology.nullspace"),
    ("syncgames.morphology", "left_nullspace_basis", "morphology.nullspace"),
    ("syncgames.morphology", "mono_witness", "morphology.witness"),
    ("syncgames.morphology", "epi_witness", "morphology.witness"),
    ("syncgames.corrcore", "deserialize", "corrcore.parse"),
    ("syncgames.corrcore", "from_json_dict", "corrcore.parse"),
    ("syncgames.corrcore", "serialize", "corrcore.serialize"),
    ("syncgames.corrcore", "to_json_dict", "corrcore.serialize"),
    ("syncgames.constructors", "from_quantum_model", "constructors.quantum_eval"),
    ("syncgames.boole", "atoms_to_intersections", "boole.transform"),
    ("syncgames.boole", "intersections_to_atoms", "boole.transform"),
    ("syncgames.cli", "main", "cli.main"),
)

# What a span keeps of its call, for the size counts.  These run after the
# span has closed and only hold references; sizes are computed in
# :func:`layer_metrics`.
PROBES: dict[str, Callable[[tuple, Any], Any]] = {
    "simplex.solve": lambda args, result: (len(args[0]), args[1], result),
    "morphology.nullspace": lambda args, result: len(result),
}

OP = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    probe: Any = None


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._replaced: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(index)
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._open.pop()
        probe = PROBES.get(name)
        if probe is not None:
            span.probe = probe(args, result)
        return result

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every ``syncgames`` binding of each target with a wrapper."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "syncgames"]
        for module_name, function_name, span_name in TARGETS:
            original = getattr(sys.modules[module_name], function_name)
            wrapper = self.wrap(span_name, original)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, wrapper)
                        self._replaced.append((module, attribute, original))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._replaced):
            setattr(module, attribute, original)
        self._replaced.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans on one thread nest, so the children of a span cover disjoint parts
    of its interval and their durations can simply be subtracted.
    """
    result = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            result[s.parent] -= s.end - s.start
    return result


def _bits(values) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values), default=0
    )


def layer_metrics(spans: list[Span], json_bytes: int) -> dict[str, float]:
    """Per-layer metrics, named as in the benchmark definition.

    Times are self-times in seconds per operation; ``*_calls`` are calls per
    operation; LP sizes are means per LP solve; ``nullspace_dim`` is the mean
    basis length per call.
    """
    own = defaultdict(float)
    calls: Counter = Counter()
    for span, t in zip(spans, self_times(spans)):
        own[span.name] += t
        calls[span.name] += 1
    ops = calls[OP] or 1
    lps = [s.probe for s in spans if s.name == "simplex.solve"]
    solved = [(columns, sum(1 for v in x if v != 0)) for columns, _, x in lps if x is not None]
    nullspaces = [s.probe for s in spans if s.name == "morphology.nullspace"]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    return {
        "simplex.solve_s": own["simplex.solve"] / ops,
        "simplex.calls_per_op": calls["simplex.solve"] / ops,
        "simplex.support": mean([support for _, support in solved]),
        "simplex.max_bits": max(
            (max(_bits(target), _bits(x or ())) for _, target, x in lps), default=0
        ),
        "category.decompose_self_s": own["category.decompose"] / ops,
        "category.lp_columns": mean([columns for columns, _, _ in lps]),
        "category.lp_rows": mean([len(target) for _, target, _ in lps]),
        "category.lp_column_use": mean([support / columns for columns, support in solved]),
        "category.predicates_s": own["category.predicates"] / ops,
        "category.compose_s": own["category.compose"] / ops,
        "category.compose_calls": calls["category.compose"] / ops,
        "morphology.nullspace_s": own["morphology.nullspace"] / ops,
        "morphology.nullspace_calls": calls["morphology.nullspace"] / ops,
        "morphology.nullspace_dim": mean(nullspaces),
        "morphology.witness_self_s": own["morphology.witness"] / ops,
        "corrcore.parse_s": own["corrcore.parse"] / ops,
        "corrcore.serialize_s": own["corrcore.serialize"] / ops,
        "corrcore.json_bytes": json_bytes / ops,
        "constructors.quantum_eval_s": own["constructors.quantum_eval"] / ops,
        "boole.transform_s": own["boole.transform"] / ops,
        "cli.self_s": own["cli.main"] / ops,
        "op_s": sum(s.end - s.start for s in spans if s.name == OP) / ops,
        "harness.self_s": own[OP] / ops,
    }
