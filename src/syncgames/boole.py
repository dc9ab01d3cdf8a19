"""Inclusion-exclusion machinery for intersection probabilities of n events.

Subsets of ``{S_0, ..., S_{n-1}}`` are encoded little-endian: index ``j``
stands for the intersection of the events whose bits are set in ``j``, so
``j = 0`` is the empty intersection, ``j = 2**l`` is ``S_l`` alone and
``j = 2**l + 2**m`` is the pairwise intersection of ``S_l`` and ``S_m``.

Two coordinate systems are used for a vector of length ``2**n``:

* ``atoms``: the probability of each atom of the Boolean algebra, that is
  of each full intersection pattern (which events occur, which do not);
* ``intersections``: the probability ``w_j`` of each intersection.

The change of basis in either direction factors into ``n`` single-bit
passes, so it costs ``O(n * 2**n)`` and no ``2**n x 2**n`` matrix is ever
materialized.  Everything is exact: a vector is held as integer
numerators over one common denominator in lowest terms, the passes add
and subtract whole slices of those integers, and the ``Fraction`` entries
are a view built on first read.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .corrcore import (
    ONE,
    ZERO,
    PairWeights,
    _over_lcm,
    _rational_parts,
    as_rational,
    common_denominator,
    format_rational,
)
from .errors import (
    NotNormalizedAtEmptySetError,
    NotSymmetricError,
    OutOfRangeError,
    ShapeMismatchError,
    UnsupportedShapeError,
    WeightsNotNormalizedError,
)

ATOMS = "atoms"
INTERSECTIONS = "intersections"


def _fraction_view(vector) -> tuple[Fraction, ...]:
    """The numerators of ``vector`` over its denominator as Fractions.

    Built on the first read and kept through ``object.__setattr__``, as
    :attr:`Correlation.matrix <syncgames.corrcore.Correlation.matrix>` is.
    """
    try:
        return vector._entries
    except AttributeError:
        d = vector.denominator
        entries = tuple(Fraction(v, d) if v else ZERO for v in vector.numerators)
        object.__setattr__(vector, "_entries", entries)
        return entries


@dataclass(frozen=True, init=False, repr=False)
class BooleVector:
    """A length ``2**n`` vector of exact rationals in one of two bases.

    ``atoms`` vectors are validated as probability distributions.
    ``intersections`` vectors are validated to be nonnegative with
    ``w_0 = 1``; internal consistency (equivalently, nonnegativity of the
    reconstructed atoms) is what :func:`intersections_to_atoms` decides.

    ``BooleVector(n, interpretation, entries)`` takes Fractions.  The
    instance holds integers: entry ``j`` is ``numerators[j] / denominator``,
    with the denominator the lcm of the entries' denominators, so the form
    is canonical and equality and hashing compare it.  ``entries`` is a
    view of Fractions, built on its first read and then kept.
    """

    n: int
    interpretation: str
    denominator: int
    numerators: tuple[int, ...]

    def __init__(self, n: int, interpretation: str, entries: Sequence[Fraction]) -> None:
        self._validate(n, interpretation, *common_denominator(entries))

    @classmethod
    def _from_integers(cls, n, interpretation, denominator, numerators) -> BooleVector:
        """The vector with entries ``numerators[j] / denominator``.

        ``denominator`` is a positive int and ``numerators`` a sequence of
        ints, in any terms; every constructor ends here.
        """
        v = cls.__new__(cls)
        v._validate(n, interpretation, denominator, numerators)
        return v

    def _validate(self, n, interpretation, d, numerators) -> None:
        """Check the length, then the interpretation's conditions on the
        integers, reduce them once to lowest terms, and set the fields."""
        if n < 0:
            raise ShapeMismatchError("n must be nonnegative")
        # Bit lengths first: 2**n for an absurd n would exhaust memory.
        length = len(numerators)
        if length.bit_length() != n + 1 or length != 1 << n:
            raise ShapeMismatchError(f"need 2**{n} entries for n = {n}, got {length}")
        if interpretation == ATOMS:
            if min(numerators) < 0:
                j = next(j for j, v in enumerate(numerators) if v < 0)
                raise WeightsNotNormalizedError(
                    f"atom {j} has negative mass {Fraction(numerators[j], d)}"
                )
            total = sum(numerators)
            if total != d:
                raise WeightsNotNormalizedError(f"atoms sum to {Fraction(total, d)}, expected 1")
        elif interpretation == INTERSECTIONS:
            if numerators[0] != d:
                raise NotNormalizedAtEmptySetError(
                    f"empty intersection has probability {Fraction(numerators[0], d)}, "
                    "expected 1"
                )
            if min(numerators) < 0:
                j = next(j for j, v in enumerate(numerators) if v < 0)
                raise OutOfRangeError(
                    f"intersection {j} has negative probability {Fraction(numerators[j], d)}"
                )
        else:
            raise ValueError(f"unknown interpretation {interpretation!r}")
        g = math.gcd(d, *numerators)
        if g != 1:
            d //= g
            numerators = [v // g for v in numerators]
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "interpretation", interpretation)
        object.__setattr__(self, "denominator", d)
        object.__setattr__(self, "numerators", tuple(numerators))

    entries = property(_fraction_view, doc="The entries as Fractions, built on the first read.")

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(n={self.n!r}, "
            f"interpretation={self.interpretation!r}, entries={self.entries!r})"
        )


def boole_vector(n: int, interpretation: str, entries: Sequence) -> BooleVector:
    """Build a :class:`BooleVector` from ints, Fractions or rational strings.

    Every value is read first, as :func:`as_rational` reads it, raising what
    it raises; then the vector is checked.
    """
    parts = [_rational_parts(v) for v in entries]
    return BooleVector._from_integers(n, interpretation, *_over_lcm(parts))


def measure_to_atoms(mu: Mapping[tuple[int, ...], object], n: int) -> BooleVector:
    """Turn a measure on binary functions into an atom vector.

    Keys are length ``n`` tuples over ``{0, 1}``; the function mapping
    position ``k`` to bit ``k`` of ``j`` lands in atom ``j``.  Raises
    :class:`WeightsNotNormalizedError` when the weights are negative
    anywhere or do not sum to one.
    """
    numerators = [0] * (1 << n)
    indices, parts = [], []
    for key, raw in mu.items():
        if len(key) != n or any(bit not in (0, 1) for bit in key):
            raise ShapeMismatchError(f"key {key!r} is not a length-{n} binary tuple")
        weight = _rational_parts(raw)
        if weight[0] < 0:
            raise WeightsNotNormalizedError(
                f"weight of {key!r} is negative: {Fraction(*weight)}"
            )
        j = 0
        for k, bit in enumerate(key):
            j |= bit << k
        indices.append(j)
        parts.append(weight)
    d, cleared = _over_lcm(parts)
    for j, v in zip(indices, cleared):
        numerators[j] += v
    total = sum(cleared)
    if total != d:
        raise WeightsNotNormalizedError(f"measure sums to {Fraction(total, d)}, expected 1")
    return BooleVector._from_integers(n, ATOMS, d, numerators)


def _passes(n: int, numerators: Sequence[int], sign: int) -> list[int]:
    """A copy of ``numerators`` after one pass per event.

    Pass ``l`` adds ``sign`` times entry ``j + 2**l`` to entry ``j`` for
    every ``j`` without bit ``l``.  Those ``j`` form ``2**l`` strided slices
    (one per offset below ``2**l``) or ``2**(n-l-1)`` contiguous slices (one
    per block of ``2**(l+1)``); each pass takes whichever are fewer, and
    updates each slice with one ``map`` of ``+`` or ``-``.
    """
    values = list(numerators)
    size = len(values)
    op = operator.add if sign > 0 else operator.sub
    for l in range(n):
        bit = 1 << l
        step = bit << 1
        if bit <= size // step:
            for j in range(bit):
                values[j:size:step] = map(op, values[j:size:step], values[j + bit:size:step])
        else:
            for j in range(0, size, step):
                values[j:j + bit] = map(op, values[j:j + bit], values[j + bit:j + step])
    return values


def atoms_to_intersections(p: BooleVector) -> BooleVector:
    """Map atom probabilities to intersection probabilities.

    One pass per event: the probability of an intersection not involving
    event ``l`` is the sum over both settings of event ``l``.
    """
    if p.interpretation != ATOMS:
        raise ValueError("expected an atoms vector")
    return BooleVector._from_integers(
        p.n, INTERSECTIONS, p.denominator, _passes(p.n, p.numerators, 1)
    )


@dataclass(frozen=True, repr=False)
class AtomReconstruction:
    """Outcome of inverting an intersection vector.

    ``numerators`` over ``denominator`` always holds the unique signed
    solution, in lowest terms, and ``entries`` is its view as Fractions,
    built on the first read.  When every entry is nonnegative the vector is
    a genuine distribution, ``feasible`` is true and :meth:`atoms` wraps
    it; otherwise ``negative_indices`` is the certificate of infeasibility.
    """

    n: int
    denominator: int
    numerators: tuple[int, ...]
    feasible: bool
    negative_indices: tuple[int, ...]

    entries = property(_fraction_view, doc="The entries as Fractions, built on the first read.")

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(n={self.n!r}, entries={self.entries!r}, "
            f"feasible={self.feasible!r}, negative_indices={self.negative_indices!r})"
        )

    def atoms(self) -> BooleVector:
        if not self.feasible:
            raise WeightsNotNormalizedError(
                f"reconstruction is infeasible at atoms {list(self.negative_indices)}"
            )
        return BooleVector._from_integers(self.n, ATOMS, self.denominator, self.numerators)


def intersections_to_atoms(w: BooleVector) -> AtomReconstruction:
    """Invert :func:`atoms_to_intersections`, reporting feasibility.

    The inverse also factors into one alternating-difference pass per
    event.  The result certifies infeasibility by listing every atom whose
    reconstructed mass is negative.  Both changes of basis are integer
    matrices with integer inverses, so the atoms of ``w``, over its
    denominator, are in lowest terms as ``w`` is.
    """
    if w.interpretation != INTERSECTIONS:
        raise ValueError("expected an intersections vector")
    values = _passes(w.n, w.numerators, -1)
    negative = tuple(j for j, v in enumerate(values) if v < 0) if min(values) < 0 else ()
    return AtomReconstruction(w.n, w.denominator, tuple(values), not negative, negative)


def pair_bounds(a, b) -> tuple[Fraction, Fraction]:
    """Sharp bounds on ``Pr(S_1 and S_2)`` given ``Pr(S_1)`` and ``Pr(S_2)``.

    Returns ``(max(0, a + b - 1), min(a, b))``.
    """
    a = as_rational(a)
    b = as_rational(b)
    for name, value in (("a", a), ("b", b)):
        if not ZERO <= value <= ONE:
            raise OutOfRangeError(f"{name} = {value} is outside [0, 1]")
    lower = a + b - ONE
    if lower < ZERO:
        lower = ZERO
    upper = a if a <= b else b
    return lower, upper


def pairwise_intersection_vector(w: PairWeights) -> BooleVector:
    """Embed symmetric pairwise weights as an intersection vector.

    With ``n = |X|`` events, singleton ``w_{2**l}`` gets ``w(l, l)``, the
    pair ``w_{2**l + 2**m}`` gets ``w(l, m)``, every deeper intersection
    gets zero and the empty intersection gets one.
    """
    if not w.is_symmetric():
        raise NotSymmetricError("pairwise weights must be symmetric")
    n = w.base_set.size
    d, cleared = common_denominator([v for row in w.matrix for v in row])
    numerators = [0] * (1 << n)
    numerators[0] = d
    for l in range(n):
        for m in range(l, n):
            numerators[(1 << l) | (1 << m)] = cleared[l * n + m]
    return BooleVector._from_integers(n, INTERSECTIONS, d, numerators)


# ---------------------------------------------------------------------------
# Three-event bounds on the triple intersection, and the induced linear
# inequalities in the pairwise data alone.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TripleBounds:
    """Evaluated bounds on the triple intersection of three events."""

    lowers: tuple[Fraction, Fraction, Fraction, Fraction]
    uppers: tuple[Fraction, Fraction, Fraction, Fraction]

    @property
    def feasible(self) -> bool:
        return max(self.lowers) <= min(self.uppers)

    def interval(self) -> tuple[Fraction, Fraction]:
        return max(self.lowers), min(self.uppers)


def triple_bounds(w: PairWeights) -> TripleBounds:
    """Bounds on ``w_7`` from singleton and pairwise probabilities of 3 events.

    ``w`` holds ``w(i, i) = Pr(S_i)`` and ``w(i, j) = Pr(S_i and S_j)``.
    The four lower and four upper bounds are exactly the nonnegativity
    conditions of the eight reconstructed atoms, solved for ``w_7``.
    """
    if w.base_set.size != 3:
        raise UnsupportedShapeError("triple bounds need exactly three events")
    if not w.is_symmetric():
        raise NotSymmetricError("pairwise weights must be symmetric")
    m = w.matrix
    for i in range(3):
        for j in range(3):
            if m[i][j] > ONE:
                raise OutOfRangeError(f"w({i}, {j}) = {m[i][j]} is outside [0, 1]")
    w00, w11, w22 = m[0][0], m[1][1], m[2][2]
    w01, w02, w12 = m[0][1], m[0][2], m[1][2]
    lowers = (
        ZERO,
        w01 + w02 - w00,
        w01 + w12 - w11,
        w02 + w12 - w22,
    )
    uppers = (
        ONE - w00 - w11 - w22 + w01 + w02 + w12,
        w01,
        w02,
        w12,
    )
    return TripleBounds(lowers, uppers)


SYMBOLS = ("1", "w(x0,x0)", "w(x0,x1)", "w(x0,x2)", "w(x1,x1)", "w(x1,x2)", "w(x2,x2)")

_LOWER_COEFFS = (
    {},
    {"w(x0,x0)": -1, "w(x0,x1)": 1, "w(x0,x2)": 1},
    {"w(x1,x1)": -1, "w(x0,x1)": 1, "w(x1,x2)": 1},
    {"w(x2,x2)": -1, "w(x0,x2)": 1, "w(x1,x2)": 1},
)

_UPPER_COEFFS = (
    {
        "1": 1,
        "w(x0,x0)": -1,
        "w(x1,x1)": -1,
        "w(x2,x2)": -1,
        "w(x0,x1)": 1,
        "w(x0,x2)": 1,
        "w(x1,x2)": 1,
    },
    {"w(x0,x1)": 1},
    {"w(x0,x2)": 1},
    {"w(x1,x2)": 1},
)


def _freeze(coeffs: Mapping[str, object]) -> tuple[tuple[str, Fraction], ...]:
    return tuple(
        (symbol, as_rational(coeffs[symbol])) for symbol in SYMBOLS if symbol in coeffs
    )


def _render(coeffs: tuple[tuple[str, Fraction], ...]) -> str:
    if not coeffs:
        return "0"
    parts = []
    for symbol, value in coeffs:
        sign = "+" if value > 0 else "-"
        magnitude = format_rational(abs(value))
        if symbol == "1":
            parts.append(f"{sign}{magnitude}")
        else:
            parts.append(f"{sign}{magnitude}*{symbol}")
    return " ".join(parts)


@dataclass(frozen=True)
class AffineInequality:
    """One inequality ``lower <= upper`` between affine forms in the symbols."""

    lower: tuple[tuple[str, Fraction], ...]
    upper: tuple[tuple[str, Fraction], ...]

    def normal_form(self) -> dict[str, Fraction]:
        """The same inequality as ``sum(coeff * symbol) >= 0``."""
        result: dict[str, Fraction] = {}
        for symbol, value in self.upper:
            result[symbol] = result.get(symbol, ZERO) + value
        for symbol, value in self.lower:
            result[symbol] = result.get(symbol, ZERO) - value
        return {symbol: value for symbol, value in result.items() if value != 0}

    def text(self) -> str:
        return f"{_render(self.lower)} <= {_render(self.upper)}"


@dataclass(frozen=True)
class InequalitySystem:
    """A finite family of affine inequalities over a fixed symbol list."""

    symbols: tuple[str, ...]
    inequalities: tuple[AffineInequality, ...]

    def __len__(self) -> int:
        return len(self.inequalities)

    def text_lines(self) -> list[str]:
        return [ineq.text() for ineq in self.inequalities]

    def to_json_list(self) -> list[dict]:
        return [
            {
                "lower": {s: format_rational(v) for s, v in ineq.lower},
                "upper": {s: format_rational(v) for s, v in ineq.upper},
                "normal_form": {
                    s: format_rational(v) for s, v in sorted(
                        ineq.normal_form().items(), key=lambda kv: SYMBOLS.index(kv[0])
                    )
                },
                "sense": ">= 0",
                "text": ineq.text(),
            }
            for ineq in self.inequalities
        ]


def triple_inequalities() -> InequalitySystem:
    """All sixteen ``lower_i <= upper_j`` pairings of the triple bounds.

    Deduplication never triggers: the sixteen normal forms are pairwise
    distinct, which the test suite pins down.
    """
    inequalities = []
    seen = set()
    for lower in _LOWER_COEFFS:
        for upper in _UPPER_COEFFS:
            ineq = AffineInequality(_freeze(lower), _freeze(upper))
            key = tuple(sorted(ineq.normal_form().items()))
            if key not in seen:
                seen.add(key)
                inequalities.append(ineq)
    return InequalitySystem(SYMBOLS, tuple(inequalities))
