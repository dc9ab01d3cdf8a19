"""Exact data model for two-player correlations between finite sets.

A correlation from an input set ``X`` to an output set ``Y`` describes a
cooperative two-player game: each player receives a symbol of ``X`` and
answers with a symbol of ``Y``, and ``p(y_a, y_b | x_a, x_b)`` is the joint
conditional distribution of the answers.  It is stored as a
``|Y|^2 x |X|^2`` column-stochastic matrix of exact rationals with the two
players' symbols paired A-major:

    row    = index(y_a) * |Y| + index(y_b)
    column = index(x_a) * |X| + index(x_b)

Every value in this module is immutable and exact.  A correlation is held
as integers, each column's numerators over that column's lcm in lowest
terms, which is canonical, so equality is bit-exact; its
:class:`fractions.Fraction` entries are a view built on first read.  The
JSON serialization round-trips losslessly including label order, and is
read straight into those integers.  Floating point never appears.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Mapping, Optional, Sequence

from .errors import (
    ColumnSumNotOneError,
    NegativeEntryError,
    ParseError,
    ShapeMismatchError,
    UnknownLabelError,
    WeightsNotNormalizedError,
)

ZERO = Fraction(0)
ONE = Fraction(1)

# The text form of a rational: an optional sign, then ``n`` or ``n/d`` in
# decimal digits.  ``Fraction`` would also read decimals and exponents, and
# expand an exponent such as ``1e999999999`` into a power of ten, so the
# groups are read with ``int`` instead.
_RATIONAL_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _rational_parts(value) -> tuple[int, int]:
    """``(numerator, denominator)`` of :func:`as_rational`'s value, not reduced.

    The denominator is positive.  Raises as :func:`as_rational` does.
    """
    if isinstance(value, str):
        match = _RATIONAL_TEXT.fullmatch(value)
        if match is None:
            raise ValueError(f"{value!r} is not a rational of the form n or n/d")
        numerator, denominator = match.groups()
        n, d = int(numerator), int(denominator or 1)
        if not d:
            raise ZeroDivisionError(f"Fraction({n}, 0)")
        return n, d
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"cannot interpret {value!r} as an exact rational")
    return value, 1


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction or ``"n"``/``"n/d"`` string to a Fraction.

    Floats are rejected on purpose: they would silently break exactness.
    A string must be an optional sign and then ``n`` or ``n/d`` in decimal
    digits; anything else (spaces, decimals, exponents) raises ValueError.
    """
    if isinstance(value, Fraction):
        return value
    return Fraction(*_rational_parts(value))


def parse_rational(value, location: str) -> Fraction:
    """:func:`as_rational` for outside input: failures raise :class:`ParseError`."""
    try:
        return as_rational(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParseError(location, str(exc)) from None


def common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``(d, [v * d for v in values])`` with ``d`` the lcm of the denominators.

    Exact kernels whose inputs are Fractions clear them with this and
    compute in ``int``s.
    """
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _over_lcm(parts: Sequence[tuple[int, int]]) -> tuple[int, Sequence[int]]:
    """``(d, numerators)`` of :func:`_rational_parts` pairs over the lcm ``d``
    of their denominators."""
    d = math.lcm(*map(itemgetter(1), parts))
    if d == 1:
        return d, [n for n, _ in parts]
    return d, [n * (d // e) for n, e in parts]


def format_rational(value: Fraction) -> str:
    """Canonical text form in lowest terms: ``"n"`` or ``"n/d"``."""
    return str(value)


@dataclass(frozen=True)
class FiniteSet:
    """An ordered finite set of distinct string labels.

    The position of a label is its index.  Two sets are equal only when
    their label sequences are identical, order included.
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.labels, tuple):
            object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) == 0:
            raise ValueError("a finite set needs at least one label")
        for label in self.labels:
            if not isinstance(label, str):
                raise ValueError(f"labels must be strings, got {label!r}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"labels must be pairwise distinct: {self.labels!r}")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def pair_count(self) -> int:
        return len(self.labels) ** 2

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabelError(label, self.labels) from None

    def pair_index(self, i: int, j: int) -> int:
        """Flat index of the ordered index pair ``(i, j)``."""
        return i * len(self.labels) + j

    def pair_of(self, k: int) -> tuple[int, int]:
        """Inverse of :meth:`pair_index`."""
        n = len(self.labels)
        return divmod(k, n)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """All ordered index pairs, in flat-index order."""
        n = len(self.labels)
        for i in range(n):
            for j in range(n):
                yield i, j


def finite_set(labels: Sequence[str]) -> FiniteSet:
    return FiniteSet(tuple(labels))


def parse_labels(value, location: str) -> FiniteSet:
    """A :class:`FiniteSet` from an outside list of labels, else :class:`ParseError`."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(s, str) for s in value):
        raise ParseError(location, "expected a list of strings")
    try:
        return FiniteSet(tuple(value))
    except ValueError as exc:
        raise ParseError(location, str(exc)) from None


@dataclass(frozen=True, init=False, repr=False)
class Correlation:
    """A column-stochastic matrix of exact rationals over squared index sets.

    Construction validates the shape, nonnegativity of every entry and that
    each column sums to exactly one, so any held instance is a genuine
    correlation.  Prefer :func:`make_correlation` when starting from raw
    nested sequences; ``Correlation(input_set, output_set, matrix)`` takes
    rows of Fractions.

    The instance holds integers: ``lcms[c]`` is the lcm of the denominators
    of column ``c`` and ``columns[c]`` its numerators over that lcm, so that
    ``matrix[r][c] == columns[c][r] / lcms[c]``.  This form is canonical, so
    equality and hashing compare the two sets and these integers, and mean
    what equal matrices mean.  The exact kernels compute on them, and build
    their results from integers too.  ``matrix`` is a view of Fractions,
    built on its first read and then kept; ``repr`` shows it.
    """

    input_set: FiniteSet
    output_set: FiniteSet
    lcms: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]

    def __init__(self, input_set: FiniteSet, output_set: FiniteSet, matrix) -> None:
        rows = [tuple(row) for row in matrix]
        for r, row in enumerate(rows):
            for c, value in enumerate(row):
                if not isinstance(value, Fraction):
                    raise TypeError(f"entry at ({r}, {c}) is {value!r}, not a Fraction")
        self._validate(input_set, output_set, *_columns_of_rows(input_set, output_set, rows))

    @classmethod
    def _from_columns(cls, input_set, output_set, scales, columns) -> Correlation:
        """The correlation whose column ``c`` is ``columns[c] / scales[c]``.

        ``scales`` are positive ints and ``columns`` sequences of ints, in
        any terms; every constructor ends here.
        """
        p = cls.__new__(cls)
        p._validate(input_set, output_set, scales, columns)
        return p

    def _validate(self, input_set, output_set, scales, columns) -> None:
        """Check the shape, nonnegativity and ``sum == scale`` of each column,
        reduce it once to lowest terms, and set the fields."""
        rows = output_set.pair_count
        if len(columns) != input_set.pair_count or set(map(len, columns)) != {rows}:
            raise ShapeMismatchError(
                f"expected {input_set.pair_count} columns of {rows} entries for set sizes "
                f"{input_set.size} -> {output_set.size}"
            )
        lcms, kept = [], []
        for c, (scale, column) in enumerate(zip(scales, columns)):
            if min(column) < 0:
                r = next(r for r, v in enumerate(column) if v < 0)
                raise NegativeEntryError(r, c, Fraction(column[r], scale))
            total = sum(column)
            if total != scale:
                raise ColumnSumNotOneError(c, Fraction(total, scale))
            # The lowest common denominator is scale / gcd(scale, *column),
            # and scale is the column's sum.
            g = math.gcd(*column)
            if g != 1:
                scale //= g
                column = [v // g for v in column]
            lcms.append(scale)
            kept.append(tuple(column))
        object.__setattr__(self, "input_set", input_set)
        object.__setattr__(self, "output_set", output_set)
        object.__setattr__(self, "lcms", tuple(lcms))
        object.__setattr__(self, "columns", tuple(kept))

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as rows of Fractions, built on the first read."""
        # Kept by object.__setattr__, not written into __dict__ as by
        # cached_property: on Python 3.11 touching __dict__ slows every later
        # attribute read of the instance, and the class predicates make many.
        try:
            return self._matrix
        except AttributeError:
            columns = [self.column(c) for c in range(len(self.columns))]
            object.__setattr__(self, "_matrix", tuple(zip(*columns)))
            return self._matrix

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(input_set={self.input_set!r}, "
            f"output_set={self.output_set!r}, matrix={self.matrix!r})"
        )

    def entry(self, y_a: str, y_b: str, x_a: str, x_b: str) -> Fraction:
        """``p(y_a, y_b | x_a, x_b)`` looked up by labels."""
        ys, xs = self.output_set, self.input_set
        return self.entry_by_index(ys.index(y_a), ys.index(y_b), xs.index(x_a), xs.index(x_b))

    def entry_by_index(self, ya: int, yb: int, xa: int, xb: int) -> Fraction:
        c = self.input_set.pair_index(xa, xb)
        n = self.columns[c][self.output_set.pair_index(ya, yb)]
        return Fraction(n, self.lcms[c]) if n else ZERO

    def column(self, c: int) -> tuple[Fraction, ...]:
        d = self.lcms[c]
        return tuple(Fraction(n, d) if n else ZERO for n in self.columns[c])

    @property
    def row_count(self) -> int:
        return self.output_set.pair_count

    @property
    def column_count(self) -> int:
        return self.input_set.pair_count


def _columns_of_rows(input_set: FiniteSet, output_set: FiniteSet, entries) -> tuple[list, list]:
    """``(scales, columns)`` of :func:`make_correlation`'s ``entries``.

    Reads every value, checks that there are ``|Y|^2`` rows of ``|X|^2``
    values, and brings each column over the lcm of its denominators.
    """
    rows = [[_rational_parts(v) for v in row] for row in entries]
    row_count = output_set.pair_count
    column_count = input_set.pair_count
    if len(rows) != row_count:
        raise ShapeMismatchError(
            f"expected {row_count} rows for output set of size {output_set.size}, "
            f"got {len(rows)}"
        )
    for r, row in enumerate(rows):
        if len(row) != column_count:
            raise ShapeMismatchError(
                f"expected {column_count} columns for input set of size {input_set.size}, "
                f"row {r} has {len(row)}"
            )
    scales, columns = [], []
    for column in zip(*rows):
        d, numerators = _over_lcm(column)
        scales.append(d)
        columns.append(numerators)
    return scales, columns


def make_correlation(input_set: FiniteSet, output_set: FiniteSet, entries) -> Correlation:
    """Build a :class:`Correlation` from nested entry values.

    ``entries`` is an iterable of ``|Y|^2`` rows, each an iterable of
    ``|X|^2`` values: ints, Fractions or rational strings.  Every value is
    read first (as :func:`as_rational` reads it, raising what it raises),
    then the data is checked: :class:`ShapeMismatchError`,
    :class:`NegativeEntryError` or :class:`ColumnSumNotOneError` when it is
    not a correlation.
    """
    return Correlation._from_columns(
        input_set, output_set, *_columns_of_rows(input_set, output_set, entries)
    )


def _point_masses(input_set: FiniteSet, output_set: FiniteSet, targets) -> Correlation:
    """The correlation answering input pair ``c`` with output pair ``targets[c]``."""
    columns = []
    for r in targets:
        column = [0] * output_set.pair_count
        column[r] = 1
        columns.append(column)
    return Correlation._from_columns(input_set, output_set, [1] * len(columns), columns)


def identity(base_set: FiniteSet) -> Correlation:
    """The identity correlation on ``base_set``: answers echo the questions."""
    return _point_masses(base_set, base_set, range(base_set.pair_count))


# ---------------------------------------------------------------------------
# Auxiliary exact value types shared by the construction and analysis layers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairDistribution:
    """A joint probability distribution on ordered pairs of one finite set."""

    base_set: FiniteSet
    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = self.base_set.size
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ShapeMismatchError(f"pair distribution must be {n} x {n}")
        total = ZERO
        for i, row in enumerate(self.matrix):
            for j, value in enumerate(row):
                if value < 0:
                    raise NegativeEntryError(i, j, value)
                total += value
        if total != ONE:
            raise WeightsNotNormalizedError(f"pair distribution sums to {total}, expected 1")

    def row_sum(self, i: int) -> Fraction:
        return sum(self.matrix[i], ZERO)

    def column_sum(self, j: int) -> Fraction:
        return sum((row[j] for row in self.matrix), ZERO)

    def transpose(self) -> "PairDistribution":
        n = self.base_set.size
        return PairDistribution(
            self.base_set,
            tuple(tuple(self.matrix[j][i] for j in range(n)) for i in range(n)),
        )


def pair_distribution(base_set: FiniteSet, entries) -> PairDistribution:
    matrix = tuple(tuple(as_rational(v) for v in row) for row in entries)
    return PairDistribution(base_set, matrix)


@dataclass(frozen=True)
class PairWeights:
    """A nonnegative weight for every ordered pair of one finite set.

    Unlike :class:`PairDistribution` the total is unconstrained; consumers
    impose their own inequalities.
    """

    base_set: FiniteSet
    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = self.base_set.size
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise ShapeMismatchError(f"pair weights must be {n} x {n}")
        for i, row in enumerate(self.matrix):
            for j, value in enumerate(row):
                if value < 0:
                    raise NegativeEntryError(i, j, value)

    def is_symmetric(self) -> bool:
        n = self.base_set.size
        return all(
            self.matrix[i][j] == self.matrix[j][i] for i in range(n) for j in range(i + 1, n)
        )


def pair_weights(base_set: FiniteSet, entries) -> PairWeights:
    matrix = tuple(tuple(as_rational(v) for v in row) for row in entries)
    return PairWeights(base_set, matrix)


@dataclass(frozen=True)
class KernelVector:
    """A vector in the left or right nullspace of a correlation matrix.

    ``entries`` has length ``|base_set|^2`` and is indexed over ordered
    pairs of ``base_set`` (the input set for side ``"right"``, the output
    set for side ``"left"``) in the usual A-major order.
    """

    side: str
    base_set: FiniteSet
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        if len(self.entries) != self.base_set.pair_count:
            raise ShapeMismatchError(
                f"kernel vector needs {self.base_set.pair_count} entries, "
                f"got {len(self.entries)}"
            )

    def as_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """View the vector as an ``n x n`` matrix over ordered pairs."""
        n = self.base_set.size
        return tuple(
            tuple(self.entries[i * n + j] for j in range(n)) for i in range(n)
        )


@dataclass(frozen=True)
class DeterministicPair:
    """A pair of answer functions ``X^2 -> Y``, one per player.

    ``f_a[i][j]`` is the index of Alice's answer when the inputs are
    ``(x_i, x_j)``; ``f_b`` is Bob's.  No synchronicity is implied.
    """

    input_set: FiniteSet
    output_set: FiniteSet
    f_a: tuple[tuple[int, ...], ...]
    f_b: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.input_set.size
        m = self.output_set.size
        for name, table in (("f_a", self.f_a), ("f_b", self.f_b)):
            if len(table) != n or any(len(row) != n for row in table):
                raise ShapeMismatchError(f"{name} must be an {n} x {n} table")
            for row in table:
                for v in row:
                    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < m:
                        raise ShapeMismatchError(
                            f"{name} entries must be output indices below {m}, got {v!r}"
                        )

    def image_pair(self, i: int, j: int) -> tuple[int, int]:
        """Both players' answer indices on the input pair ``(x_i, x_j)``."""
        return self.f_a[i][j], self.f_b[i][j]

    def is_synchronous(self) -> bool:
        return all(self.f_a[i][i] == self.f_b[i][i] for i in range(self.input_set.size))

    def shared_function(self) -> Optional[tuple[int, ...]]:
        """Output indices of ``f`` when both players answer ``f`` of their own input."""
        n = self.input_set.size
        f = tuple(self.f_a[i][0] for i in range(n))
        for i in range(n):
            for j in range(n):
                if self.f_a[i][j] != f[i] or self.f_b[i][j] != f[j]:
                    return None
        return f


# ---------------------------------------------------------------------------
# JSON serialization.
# ---------------------------------------------------------------------------


def _column_texts(d: int, column: Sequence[int]) -> list[str]:
    """:func:`format_rational` of each ``n / d``, from the integers."""
    if d == 1:
        return [str(n) for n in column]
    texts = []
    for n in column:
        if n:
            g = math.gcd(n, d)
            texts.append(str(n // g) if g == d else f"{n // g}/{d // g}")
        else:
            texts.append("0")
    return texts


def to_json_dict(p: Correlation) -> dict:
    columns = [_column_texts(d, column) for d, column in zip(p.lcms, p.columns)]
    return {
        "input_set": list(p.input_set.labels),
        "output_set": list(p.output_set.labels),
        "entries": [list(row) for row in zip(*columns)],
    }


def serialize(p: Correlation) -> str:
    """Canonical JSON text for ``p``; exact round trip via :func:`deserialize`."""
    return json.dumps(to_json_dict(p), indent=1)


def from_json_dict(data: Mapping) -> Correlation:
    if not isinstance(data, Mapping):
        raise ParseError("<root>", "expected a JSON object")
    input_set = parse_labels(data.get("input_set"), "input_set")
    output_set = parse_labels(data.get("output_set"), "output_set")
    entries = data.get("entries")
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise ParseError("entries", "expected a list of lists of rational strings")
    try:
        return make_correlation(input_set, output_set, entries)
    except (ValueError, ZeroDivisionError, TypeError):
        # Only reading a cell raises these: locate the first cell that fails.
        for r, row in enumerate(entries):
            for c, cell in enumerate(row):
                parse_rational(cell, f"entries[{r}][{c}]")
        raise


def _parse_json(text: str | bytes, location: str):
    """``json.loads(text)`` for outside input: failures raise :class:`ParseError`.

    A syntax error is located at ``location:line:column``; bytes that are
    not UTF-8 and JSON nested too deeply to parse at ``location``.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{location}:{exc.lineno}:{exc.colno}", exc.msg) from None
    except UnicodeDecodeError as exc:
        raise ParseError(location, str(exc)) from None
    except RecursionError:
        raise ParseError(location, "JSON nested too deeply") from None


def deserialize(text: str) -> Correlation:
    """Parse JSON text into a validated :class:`Correlation`.

    Structural problems raise :class:`ParseError` with the offending
    location, as do JSON nested too deeply to parse and bytes that are not
    UTF-8; violations of the correlation axioms re-raise the underlying
    :func:`make_correlation` error unchanged.
    """
    return from_json_dict(_parse_json(text, "<json>"))
