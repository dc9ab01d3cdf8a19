"""Categorical structure of synchronous correlations.

Correlations of a fixed class compose associatively and contain the
identities, so each class (synchronous ``S``, nonsignaling ``NS``,
quantum-style ``Q``, classical ``HV``) is the hom-set family of a
category whose objects are finite sets.  This module decides, for a
correlation and a category tag:

* section / retraction, by one support rule, with deterministic inverses;
* monomorphism / epimorphism, which in all four categories reduce to the
  right / left nullspace of the matrix being zero; when the nullspace is
  nonzero, an explicit witness pair of distinct correlations with equal
  compositions is produced inside the same category;
* bimorphism (mono and epi) and isomorphism.

Membership in a tag is checked exactly: ``S`` is synchronicity, ``NS``
adds nonsignaling, ``Q`` adds symmetry, and ``HV`` asks for an exact
classical decomposition.  ``Q`` deliberately accepts every symmetric
synchronous nonsignaling correlation: quantum-constructed inputs satisfy
these and the tag does not attempt to decide quantum realizability.

Every decider reads its facts from one :class:`Analysis` of the
correlation; pass the result of :func:`analyze` instead of the
correlation to share those facts between several questions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .category import (
    classical_decomposition,
    compose,
    is_deterministic,
    is_nonsignaling,
    is_symmetric,
    is_synchronous,
)
from .constructors import (
    BINARY,
    TERNARY,
    ClassicalModel,
    _blocks_to_correlation,
    classical_model,
    classical_model_from_json_dict,
    classical_model_to_json_dict,
    from_classical_model,
    from_deterministic_pair,
    two_input_classical,
    two_input_nonsignaling,
    two_output_classical,
    two_output_nonsignaling,
)
from .corrcore import (
    ONE,
    ZERO,
    Correlation,
    DeterministicPair,
    FiniteSet,
    KernelVector,
    PairDistribution,
    PairWeights,
    format_rational,
    from_json_dict as correlation_from_json_dict,
    identity,
    parse_labels,
    parse_rational,
    to_json_dict as correlation_to_json_dict,
)
from .errors import (
    NotARetractionError,
    NotASectionError,
    NotInCategoryError,
    ParseError,
)
from .simplex import _pivot


class CategoryTag(str, enum.Enum):
    """The four correlation categories, ordered HV <= Q <= NS <= S."""

    S = "S"
    NS = "NS"
    Q = "Q"
    HV = "HV"


def _coerce_tag(cat) -> CategoryTag:
    if isinstance(cat, CategoryTag):
        return cat
    try:
        return CategoryTag(str(cat))
    except ValueError:
        raise ValueError(f"unknown category {cat!r}; expected S, NS, Q or HV") from None


Choice = dict[tuple[int, int], tuple[int, int]]  # (y, y') -> (x, x'), index pairs


class _fact:
    """A fact of :class:`Analysis`: computed on its first read, then kept.

    The value goes into the instance's ``__dict__`` under the fact's name,
    which later reads find before this descriptor.  Unlike
    ``functools.cached_property`` before Python 3.12, it takes no lock on a
    first read: ``classify`` pays every first read on every call.  Two
    threads that race on a first read store equal values.
    """

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__

    def __get__(self, a, owner=None):
        if a is None:
            return self
        value = a.__dict__[self.name] = self.compute(a)
        return value


@dataclass(frozen=True)
class Analysis:
    """The facts the deciders below read about one correlation ``p``.

    Each fact is computed on first use and then kept, so a view that needs
    only synchronicity runs no linear program and no elimination, and
    several views of one analysis share every computation.  ``classical``
    holds the exact model of the single HV linear program; it is None
    without solving anything unless ``p`` lies in ``Q``, because every
    mixture of shared functions is nonsignaling and symmetric.
    ``section`` and ``retraction`` are the inverses' answers read off the
    supports of ``p``'s columns (None if there is none), for every tag.
    ``mono_classical`` and ``epi_classical`` are the verified ``Q``
    witnesses (None if there is none); ``Q`` and ``HV`` build their
    witnesses alike, so ``HV`` returns them relabelled.
    """

    p: Correlation

    @_fact
    def synchronous(self) -> bool:
        return is_synchronous(self.p)

    @_fact
    def nonsignaling(self) -> bool:
        return is_nonsignaling(self.p)

    @_fact
    def symmetric(self) -> bool:
        return is_symmetric(self.p)

    @_fact
    def classical(self) -> Optional[ClassicalModel]:
        return classical_decomposition(self) if is_member(self, CategoryTag.Q) else None

    @_fact
    def deterministic(self) -> Optional[DeterministicPair]:
        return is_deterministic(self.p)

    @_fact
    def section(self) -> Optional[Choice]:
        return _section_choice(self.p)

    @_fact
    def retraction(self) -> Optional[Choice]:
        return _retraction_choice(self.p)

    @_fact
    def right_kernel(self) -> list[KernelVector]:
        return right_nullspace_basis(self.p)

    @_fact
    def left_kernel(self) -> list[KernelVector]:
        return left_nullspace_basis(self.p)

    @_fact
    def mono_classical(self) -> Optional[WitnessPair]:
        return _mono_witness(self, CategoryTag.Q)

    @_fact
    def epi_classical(self) -> Optional[WitnessPair]:
        return _epi_witness(self, CategoryTag.Q)


def analyze(p) -> Analysis:
    """The lazy :class:`Analysis` of a correlation.

    Every decider and witness builder in this module takes either a
    correlation or its analysis; an analysis is returned unchanged, so
    passing one to several of them computes each fact once.
    """
    return p if isinstance(p, Analysis) else Analysis(p)


def is_member(p, cat) -> bool:
    """Exact membership of ``p`` in the hom-set of the tagged category."""
    a = analyze(p)
    tag = _coerce_tag(cat)
    if not a.synchronous:
        return False
    if tag is CategoryTag.S:
        return True
    if not a.nonsignaling:
        return False
    if tag is CategoryTag.NS:
        return True
    if not a.symmetric:
        return False
    if tag is CategoryTag.Q:
        return True
    return a.classical is not None


def require_member(p, cat) -> CategoryTag:
    tag = _coerce_tag(cat)
    if not is_member(p, tag):
        raise NotInCategoryError(tag.value)
    return tag


# ---------------------------------------------------------------------------
# Exact nullspaces.
# ---------------------------------------------------------------------------


def _rref(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer ``rows``.

    Returns ``(reduced, pivots, den)`` with the reduced row echelon form
    equal to ``reduced[i][j] / den``: every pivot entry of ``reduced`` is
    ``den``.  Each column's first nonzero row at or below the rank is
    swapped up and eliminated by :func:`simplex._pivot`, the step the HV
    simplex takes.  It works on list copies: ``rows`` is left as it is.
    """
    matrix = [list(row) for row in rows]
    pivots: list[int] = []
    den = 1
    for col in range(len(matrix[0]) if matrix else 0):
        rank = len(pivots)
        pivot_row = next((i for i in range(rank, len(matrix)) if matrix[i][col]), None)
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        den = _pivot(matrix, rank, col, den)
        pivots.append(col)
        if len(pivots) == len(matrix):
            break
    return matrix[: len(pivots)], pivots, den


def _nullspace(
    rows: Sequence[Sequence[int]], scales: Sequence[int]
) -> list[tuple[Fraction, ...]]:
    """Canonical reduced-echelon nullspace basis, free columns ascending.

    ``rows`` is an integer matrix whose column ``j`` is column ``j`` of the
    rational matrix of interest times ``scales[j]``.  Undoing that scale,
    that matrix's reduced echelon form has entry
    ``reduced[i][j] * scales[pivot(i)] / (den * scales[j])``.
    """
    width = len(scales)
    reduced, pivots, den = _rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        vector = [ZERO] * width
        vector[free] = ONE
        for row, pivot_col in zip(reduced, pivots):
            if row[free]:
                vector[pivot_col] = Fraction(
                    -row[free] * scales[pivot_col], den * scales[free]
                )
        basis.append(tuple(vector))
    return basis


def _right_nullspace(
    lcms: Sequence[int], columns: Sequence[Sequence[int]]
) -> list[tuple[Fraction, ...]]:
    """Nullspace of the matrix whose column ``c`` is ``columns[c] / lcms[c]``."""
    return _nullspace(list(zip(*columns)), lcms)


def _left_nullspace(columns: Sequence[Sequence[int]]) -> list[tuple[Fraction, ...]]:
    """Left nullspace of the same matrix, which needs no ``lcms``.

    These solve ``M^T w = 0``.  Scaling a row of ``M^T`` (a column of ``M``)
    leaves its reduced echelon form unchanged: no scale is undone.
    """
    return _nullspace(columns, (1,) * len(columns[0]))


def right_nullspace_basis(p: Correlation) -> list[KernelVector]:
    """Vectors ``u`` with ``P u = 0``, indexed over input pairs."""
    return [KernelVector("right", p.input_set, v) for v in _right_nullspace(p.lcms, p.columns)]


def left_nullspace_basis(p: Correlation) -> list[KernelVector]:
    """Vectors ``w`` with ``w P = 0``, indexed over output pairs."""
    return [KernelVector("left", p.output_set, v) for v in _left_nullspace(p.columns)]


# ---------------------------------------------------------------------------
# Monomorphisms and epimorphisms.
# ---------------------------------------------------------------------------


def is_monomorphism(p, cat) -> bool:
    """Left cancellable in the tagged category: zero right nullspace.

    The criterion does not depend on the tag; the tag only scopes the
    membership precondition.
    """
    a = analyze(p)
    require_member(a, cat)
    return not a.right_kernel


def is_epimorphism(p, cat) -> bool:
    """Right cancellable in the tagged category: zero left nullspace."""
    a = analyze(p)
    require_member(a, cat)
    return not a.left_kernel


@dataclass(frozen=True)
class WitnessPair:
    """Two distinct correlations with equal compositions through ``p``.

    For side ``"mono"`` the pair satisfies ``p . q_plus == p . q_minus``;
    for side ``"epi"``, ``q_plus . p == q_minus . p``.  Both members lie in
    the tagged category, and ``kernel`` is the rescaled nullspace vector
    whose positive and negative parts drive the two members.  Every ``Q``
    and ``HV`` witness built here attaches a classical model to each
    member, which certifies its membership.
    """

    side: str
    category: str
    q_plus: Correlation
    q_minus: Correlation
    kernel: KernelVector
    model_plus: Optional[ClassicalModel] = None
    model_minus: Optional[ClassicalModel] = None


def _split_signs(
    entries: Sequence[Fraction], n: int
) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    plus = [[ZERO] * n for _ in range(n)]
    minus = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            value = entries[i * n + j]
            if value > 0:
                plus[i][j] = value
            elif value < 0:
                minus[i][j] = -value
    return plus, minus


def _point_block(n: int, i: int, j: int) -> list[list[Fraction]]:
    block = [[ZERO] * n for _ in range(n)]
    block[i][j] = ONE
    return block


def _verify_witness(p: Correlation, witness: WitnessPair) -> None:
    tag = CategoryTag(witness.category)
    if witness.q_plus == witness.q_minus:
        raise AssertionError("witness members must differ")
    if witness.side == "mono":
        left = compose(p, witness.q_plus)
        right = compose(p, witness.q_minus)
    else:
        left = compose(witness.q_plus, p)
        right = compose(witness.q_minus, p)
    if left != right:
        raise AssertionError("witness compositions must agree exactly")
    for q, model in (
        (witness.q_plus, witness.model_plus),
        (witness.q_minus, witness.model_minus),
    ):
        if model is not None:
            if from_classical_model(model) != q:
                raise AssertionError("attached model must re-expand to its witness")
        elif tag in (CategoryTag.HV, CategoryTag.Q):
            raise AssertionError("a Q or HV witness must carry a classical model")
        # An HV member's model was re-expanded above: Q is all that is left.
        if not is_member(q, CategoryTag.Q if tag is CategoryTag.HV else tag):
            raise AssertionError(f"witness must lie in {tag.value}")


def mono_witness(p, cat) -> Optional[WitnessPair]:
    """A category-internal mono failure certificate, or None if mono.

    Takes the first canonical right nullspace vector ``u``, normalizes its
    positive part to total mass one (the negative part then also has mass
    one, because the entries of ``u`` sum to zero against the stochastic
    columns), and turns the two sign parts into two correlations from the
    two-point set into ``X`` whose compositions with ``p`` agree.
    """
    a = analyze(p)
    tag = require_member(a, cat)
    if tag in (CategoryTag.Q, CategoryTag.HV):
        return _labelled(a.mono_classical, tag)
    return _mono_witness(a, tag)


def _labelled(witness: Optional[WitnessPair], tag: CategoryTag) -> Optional[WitnessPair]:
    """``witness`` with its category set to ``tag``."""
    if witness is None or witness.category == tag.value:
        return witness
    return replace(witness, category=tag.value)


def _mono_witness(a: Analysis, tag: CategoryTag) -> Optional[WitnessPair]:
    p = a.p
    basis = a.right_kernel
    if not basis:
        return None
    raw = basis[0].entries
    positive = sum((v for v in raw if v > 0), ZERO)
    u = tuple(v / positive for v in raw)
    n = p.input_set.size
    x_set = p.input_set
    u_plus, u_minus = _split_signs(u, n)
    model_plus = model_minus = None

    if tag is CategoryTag.S:
        anchor = _point_block(n, 0, 0)
        q_plus = _blocks_to_correlation(
            BINARY, x_set, {(0, 0): anchor, (0, 1): u_plus, (1, 0): anchor, (1, 1): anchor}
        )
        q_minus = _blocks_to_correlation(
            BINARY, x_set, {(0, 0): anchor, (0, 1): u_minus, (1, 0): anchor, (1, 1): anchor}
        )
    elif tag is CategoryTag.NS:
        # Pad both sign parts with the absolute-value matrix so every block
        # stays nonnegative; the padding cancels in the difference, leaving
        # only nullspace directions.
        absolute = [[u_plus[i][j] + u_minus[i][j] for j in range(n)] for i in range(n)]
        row_plus = [sum(u_plus[i], ZERO) for i in range(n)]
        col_plus = [sum((u_plus[i][j] for i in range(n)), ZERO) for j in range(n)]
        row_minus = [sum(u_minus[i], ZERO) for i in range(n)]
        col_minus = [sum((u_minus[i][j] for i in range(n)), ZERO) for j in range(n)]
        third = Fraction(1, 3)

        def build(first, second, rows_of, cols_of):
            a = [
                [third * (first[i][j] + absolute[j][i]) for j in range(n)]
                for i in range(n)
            ]
            b = [
                [
                    third
                    * (
                        (rows_of[i] + cols_of[i] if i == j else ZERO)
                        + second[i][j]
                    )
                    for j in range(n)
                ]
                for i in range(n)
            ]
            return two_input_nonsignaling(
                PairDistribution(x_set, tuple(tuple(r) for r in a)),
                PairDistribution(x_set, tuple(tuple(r) for r in b)),
            )

        q_plus = build(u_plus, u_minus, row_plus, col_plus)
        q_minus = build(u_minus, u_plus, row_minus, col_minus)
    else:
        dist_plus = PairDistribution(x_set, tuple(tuple(r) for r in u_plus))
        dist_minus = PairDistribution(x_set, tuple(tuple(r) for r in u_minus))
        q_plus = two_input_classical(dist_plus)
        q_minus = two_input_classical(dist_minus)
        model_plus = classical_model(
            BINARY, x_set, {(i, j): u_plus[i][j] for i in range(n) for j in range(n)}
        )
        model_minus = classical_model(
            BINARY, x_set, {(i, j): u_minus[i][j] for i in range(n) for j in range(n)}
        )

    witness = WitnessPair(
        "mono",
        tag.value,
        q_plus,
        q_minus,
        KernelVector("right", x_set, u),
        model_plus,
        model_minus,
    )
    _verify_witness(p, witness)
    return witness


def _skew_measures(
    y_set: FiniteSet, skew: Sequence[Sequence[Fraction]]
) -> tuple[ClassicalModel, ClassicalModel]:
    """Measures on functions ``Y -> {0, 1, 2}`` from a skew kernel matrix.

    ``skew`` must have one-norm exactly 2/3.  For each sign part ``v`` of
    the matrix, mass ``v(a, b)`` goes to the function sending ``a`` to 0,
    ``b`` to 1 and everything else to 2; each row sum goes to the function
    marking only its row point with 1; each column sum to the function
    marking only its column point with 0.  Both totals come to one exactly.
    """
    n = y_set.size
    models = []
    for sign in (1, -1):
        mu: dict[tuple[int, ...], Fraction] = {}

        def add(key: tuple[int, ...], weight: Fraction) -> None:
            if weight != 0:
                mu[key] = mu.get(key, ZERO) + weight

        for a in range(n):
            for b in range(n):
                value = sign * skew[a][b]
                if value > 0:
                    key = tuple(0 if t == a else 1 if t == b else 2 for t in range(n))
                    add(key, value)
        for a in range(n):
            row_total = sum((max(sign * skew[a][b], ZERO) for b in range(n)), ZERO)
            add(tuple(1 if t == a else 2 for t in range(n)), row_total)
        for b in range(n):
            col_total = sum((max(sign * skew[a][b], ZERO) for a in range(n)), ZERO)
            add(tuple(0 if t == b else 2 for t in range(n)), col_total)
        total = sum(mu.values(), ZERO)
        if total > ONE:
            raise AssertionError("skew measure exceeds total mass one")
        if total < ONE:
            add(tuple(2 for _ in range(n)), ONE - total)
        models.append(classical_model(y_set, TERNARY, mu))
    return models[0], models[1]


def _padded_weights(
    y_set: FiniteSet, part: Sequence[Sequence[Fraction]], pad: Fraction
) -> PairWeights:
    """The pairwise weights ``part`` with ``pad`` added on the diagonal."""
    m = y_set.size
    return PairWeights(
        y_set,
        tuple(tuple((pad if a == b else ZERO) + part[a][b] for b in range(m)) for a in range(m)),
    )


def epi_witness(p, cat) -> Optional[WitnessPair]:
    """A category-internal epi failure certificate, or None if epi.

    Takes the first canonical left nullspace vector ``w`` and rescales it
    per category.  For ``S`` the two sign parts directly define two
    correlations into the two-point set.  For ``NS`` a constant diagonal
    padding turns them into valid pairwise weights.  For ``HV`` and ``Q``
    the symmetric part of ``w`` (tried first) feeds the classical pairwise
    construction; a purely skew vector instead yields two explicit
    measures on functions into a three-point set.  All padding and
    normalization cancels in the difference of the two members, so their
    compositions with ``p`` agree exactly.
    """
    a = analyze(p)
    tag = require_member(a, cat)
    if tag in (CategoryTag.Q, CategoryTag.HV):
        return _labelled(a.epi_classical, tag)
    return _epi_witness(a, tag)


def _epi_witness(a: Analysis, tag: CategoryTag) -> Optional[WitnessPair]:
    p = a.p
    basis = a.left_kernel
    if not basis:
        return None
    raw = basis[0].entries
    m = p.output_set.size
    y_set = p.output_set
    model_plus = model_minus = None

    if tag is CategoryTag.S:
        scale = max(abs(v) for v in raw)
        w = tuple(v / scale for v in raw)
        w_plus, w_minus = _split_signs(w, m)
        blocks_plus = {}
        blocks_minus = {}
        for i in range(m):
            for j in range(m):
                blocks_plus[(i, j)] = (
                    (ONE - w_plus[i][j], ZERO),
                    (ZERO, w_plus[i][j]),
                )
                blocks_minus[(i, j)] = (
                    (ONE - w_minus[i][j], ZERO),
                    (ZERO, w_minus[i][j]),
                )
        q_plus = _blocks_to_correlation(y_set, BINARY, blocks_plus)
        q_minus = _blocks_to_correlation(y_set, BINARY, blocks_minus)
        kernel_entries = w
    elif tag is CategoryTag.NS:
        scale = 4 * max(abs(v) for v in raw)
        w = tuple(v / scale for v in raw)
        w_plus, w_minus = _split_signs(w, m)
        quarter = Fraction(1, 4)
        q_plus = two_output_nonsignaling(_padded_weights(y_set, w_plus, quarter))
        q_minus = two_output_nonsignaling(_padded_weights(y_set, w_minus, quarter))
        kernel_entries = w
    else:
        sym = [
            [(raw[a * m + b] + raw[b * m + a]) / 2 for b in range(m)] for a in range(m)
        ]
        if any(v != 0 for row in sym for v in row):
            # Symmetric part: diagonal padding 1/n with n = |Y| + 1 and peak
            # 1/(n^2 + 1) keeps every hypothesis of the classical pairwise
            # construction satisfied for an arbitrary symmetric direction.
            n = m + 1
            peak = max(abs(v) for row in sym for v in row)
            factor = Fraction(1, n * n + 1) / peak
            scaled = [[v * factor for v in row] for row in sym]
            w_plus, w_minus = _split_signs(
                tuple(scaled[a][b] for a in range(m) for b in range(m)), m
            )
            pad = Fraction(1, n)
            model_plus, q_plus = two_output_classical(_padded_weights(y_set, w_plus, pad))
            model_minus, q_minus = two_output_classical(_padded_weights(y_set, w_minus, pad))
            kernel_entries = tuple(
                scaled[a][b] for a in range(m) for b in range(m)
            )
        else:
            skew = [
                [(raw[a * m + b] - raw[b * m + a]) / 2 for b in range(m)]
                for a in range(m)
            ]
            norm = sum((abs(v) for row in skew for v in row), ZERO)
            factor = Fraction(2, 3) / norm
            scaled = [[v * factor for v in row] for row in skew]
            model_plus, model_minus = _skew_measures(y_set, scaled)
            q_plus = from_classical_model(model_plus)
            q_minus = from_classical_model(model_minus)
            kernel_entries = tuple(
                scaled[a][b] for a in range(m) for b in range(m)
            )

    witness = WitnessPair(
        "epi",
        tag.value,
        q_plus,
        q_minus,
        KernelVector("left", y_set, kernel_entries),
        model_plus,
        model_minus,
    )
    _verify_witness(p, witness)
    return witness


# ---------------------------------------------------------------------------
# Sections and retractions.
# ---------------------------------------------------------------------------


def _section_choice(p: Correlation) -> Optional[Choice]:
    """Each output pair in a column's support mapped to that input pair, or None."""
    chosen: Choice = {}
    for c, column in enumerate(p.columns):
        x = p.input_set.pair_of(c)
        for r, value in enumerate(column):
            if value:
                y = p.output_set.pair_of(r)
                if y in chosen or (y[0] == y[1] and x[0] != x[1]):
                    return None
                chosen[y] = x
    return chosen


def _retraction_choice(p: Correlation) -> Optional[Choice]:
    """Each output pair mapped to the first (diagonal) input pair sure of it, or None."""
    chosen: Choice = {}
    for c, column in enumerate(p.columns):
        support = [r for r, value in enumerate(column) if value]
        if len(support) == 1:
            x = p.input_set.pair_of(c)
            y = p.output_set.pair_of(support[0])
            if y[0] != y[1] or x[0] == x[1]:
                chosen.setdefault(y, x)
    return chosen if len(chosen) == p.output_set.pair_count else None


def _deterministic_inverse(p: Correlation, chosen: Choice, left: bool) -> Correlation:
    """The deterministic pair ``Y -> X`` answering each chosen ``(y, y')``
    with its choice and any other with ``(h(y), h(y'))``, ``h(y)`` being the
    input chosen for ``(y, y)`` or else the first.  For a nonsignaling ``p``
    this is the shared function ``h``.  Checks ``q . p`` (``left``) or ``p . q``.
    """
    ny = p.output_set.size
    h = [chosen.get((y, y), (0, 0))[0] for y in range(ny)]
    answers = [[chosen.get((y, z), (h[y], h[z])) for z in range(ny)] for y in range(ny)]
    g_a = tuple(tuple(x for x, _ in row) for row in answers)
    g_b = tuple(tuple(x for _, x in row) for row in answers)
    q = from_deterministic_pair(DeterministicPair(p.output_set, p.input_set, g_a, g_b))
    product = compose(q, p) if left else compose(p, q)
    if product != identity(p.input_set if left else p.output_set):
        raise AssertionError("inverse must compose to the identity")
    return q


def is_section(p, cat) -> bool:
    """Does ``p`` have a left inverse in the tagged category?

    ``r . p`` is the identity only if ``r`` answers ``(x, x')`` on the
    support of column ``(x, x')``, and a synchronous ``r`` answers the
    output diagonal on the input diagonal.  So ``p`` is a section exactly
    when distinct columns have disjoint supports and no off-diagonal input
    pair reaches a diagonal output pair.  The inverse of
    :func:`section_left_inverse` lies in every category ``p`` lies in, so
    the tag only scopes the membership precondition.
    """
    a = analyze(p)
    require_member(a, cat)
    return a.section is not None


def section_left_inverse(p) -> Correlation:
    """A deterministic synchronous ``q`` with ``q . p`` the identity.

    ``q`` answers each output pair in the support of column ``(x, x')``
    with ``(x, x')``, and any other ``(y, y')`` with ``(h(y), h(y'))``,
    where ``h(y)`` is the input whose column reaches ``(y, y)``, or the
    first input; for a nonsignaling ``p`` it is the shared function ``h``.
    Raises :class:`NotASectionError` unless ``p`` is a section in ``S``.
    """
    a = analyze(p)
    if not (a.synchronous and a.section is not None):
        raise NotASectionError("correlation is not a section")
    return _deterministic_inverse(a.p, a.section, left=True)


def is_retraction(p, cat) -> bool:
    """Does ``p`` have a right inverse in the tagged category?

    ``p . s`` is the identity only if ``p`` answers ``(y, y')`` for
    certain on the support of ``s``'s column ``(y, y')``, and a
    synchronous ``s`` answers ``(y, y)`` on the input diagonal.  So ``p``
    is a retraction exactly when every output pair is the certain answer
    (a point-mass column) of some input pair, and every diagonal output
    pair that of a diagonal input pair, whatever the tag.
    """
    a = analyze(p)
    require_member(a, cat)
    return a.retraction is not None


def retraction_right_inverse(p) -> Correlation:
    """A deterministic synchronous ``q`` with ``p . q`` the identity.

    ``q`` answers each output pair with the first input pair, in index
    order, that ``p`` answers with it for certain, a diagonal one for a
    diagonal output pair; for a nonsignaling ``p`` it is a shared
    function.  Raises :class:`NotARetractionError` unless ``p`` is a
    retraction in ``S``.
    """
    a = analyze(p)
    if not (a.synchronous and a.retraction is not None):
        raise NotARetractionError("correlation is not a retraction")
    return _deterministic_inverse(a.p, a.retraction, left=False)


# ---------------------------------------------------------------------------
# Bimorphisms and isomorphisms.
# ---------------------------------------------------------------------------


def is_bimorphism(p, cat) -> bool:
    """Mono and epi at once.

    A mono has full column rank, so a square mono is nonsingular and
    therefore also epi; a matrix that is not square is never both.
    """
    a = analyze(p)
    require_member(a, cat)
    return a.p.input_set.size == a.p.output_set.size and is_monomorphism(a, cat)


def is_isomorphism(p, cat) -> bool:
    """Invertible in the category: a section and a retraction at once.

    A morphism with a left and a right inverse is invertible, the two
    inverses being equal.  Outside ``S`` this means a shared deterministic
    bijection; in ``S`` it is a deterministic pair mapping input pairs one
    to one onto output pairs and the diagonal onto the diagonal, such as
    the player swap ``(a, b) -> (b, a)``.
    """
    a = analyze(p)
    return is_section(a, cat) and is_retraction(a, cat)


# ---------------------------------------------------------------------------
# Witness serialization.
# ---------------------------------------------------------------------------


def witness_to_json_dict(witness: WitnessPair) -> dict:
    data = {
        "side": witness.side,
        "category": witness.category,
        "q_plus": correlation_to_json_dict(witness.q_plus),
        "q_minus": correlation_to_json_dict(witness.q_minus),
        "kernel_side": witness.kernel.side,
        "kernel_base_set": list(witness.kernel.base_set.labels),
        "kernel_vector": [format_rational(v) for v in witness.kernel.entries],
    }
    if witness.model_plus is not None:
        data["model_plus"] = classical_model_to_json_dict(witness.model_plus)
    if witness.model_minus is not None:
        data["model_minus"] = classical_model_to_json_dict(witness.model_minus)
    return data


def witness_from_json_dict(data: Mapping) -> WitnessPair:
    if not isinstance(data, Mapping):
        raise ParseError("<root>", "expected a JSON object")
    side = data.get("side")
    if side not in ("mono", "epi"):
        raise ParseError("side", "expected 'mono' or 'epi'")
    category = data.get("category")
    try:
        tag = CategoryTag(category)
    except ValueError:
        raise ParseError("category", f"unknown category {category!r}") from None
    q_plus = correlation_from_json_dict(data.get("q_plus"))
    q_minus = correlation_from_json_dict(data.get("q_minus"))
    kernel_side = data.get("kernel_side")
    if kernel_side not in ("left", "right"):
        raise ParseError("kernel_side", "expected 'left' or 'right'")
    base = parse_labels(data.get("kernel_base_set"), "kernel_base_set")
    raw = data.get("kernel_vector")
    if not isinstance(raw, list):
        raise ParseError("kernel_vector", "expected a list of rational strings")
    entries = [parse_rational(cell, f"kernel_vector[{k}]") for k, cell in enumerate(raw)]
    model_plus = model_minus = None
    if "model_plus" in data:
        model_plus = classical_model_from_json_dict(data["model_plus"])
    if "model_minus" in data:
        model_minus = classical_model_from_json_dict(data["model_minus"])
    return WitnessPair(
        side,
        tag.value,
        q_plus,
        q_minus,
        KernelVector(kernel_side, base, tuple(entries)),
        model_plus,
        model_minus,
    )
