"""Exact subdistribution kernels over finite alphabets.

A kernel maps each input tuple to a finitely supported map from output
tuples to non-negative rationals summing to at most one.  The missing
mass of a row is the probability of failure; a row that is absent from
the table fails with probability one.  All arithmetic is exact, using
fractions.Fraction.

Objects are flat tuples of alphabets; the empty tuple is the monoidal
unit, and tensoring concatenates factor lists, so associators and
unitors are literal identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Mapping, Union

from .errors import (
    NegativeProbability,
    RowMassExceedsOne,
    TypeMismatch,
    UnknownLabel,
)

Outcome = tuple[str, ...]
Row = dict[Outcome, Fraction]
RatLike = Union[Fraction, int, str]


@dataclass(frozen=True)
class Alphabet:
    """A named finite set of outcome labels, in a fixed declared order."""

    name: str
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise UnknownLabel(f"alphabet {self.name!r} has no labels")
        if len(set(self.labels)) != len(self.labels):
            raise UnknownLabel(f"alphabet {self.name!r} has duplicate labels")

    def __repr__(self) -> str:
        return f"Alphabet({self.name!r}, {list(self.labels)!r})"


@dataclass(frozen=True)
class Obj:
    """A tensor product of alphabets; Obj(()) is the monoidal unit."""

    factors: tuple[Alphabet, ...] = ()

    def tensor(self, other: "Obj") -> "Obj":
        return Obj(self.factors + other.factors)

    def outcomes(self) -> Iterator[Outcome]:
        """All outcome tuples, each factor running in declared label order."""
        return product(*(a.labels for a in self.factors))

    @property
    def size(self) -> int:
        n = 1
        for a in self.factors:
            n *= len(a.labels)
        return n

    def __repr__(self) -> str:
        if not self.factors:
            return "I"
        return " (x) ".join(a.name for a in self.factors)


UNIT = Obj(())


def obj(*alphabets: Alphabet) -> Obj:
    return Obj(tuple(alphabets))


def _as_outcome(value, at: Obj, what: str) -> Outcome:
    """Coerce a label / sequence of labels to a validated outcome of `at`."""
    if isinstance(value, str):
        value = (value,)
    out = tuple(value)
    if len(out) != len(at.factors):
        raise UnknownLabel(
            f"{what} {out!r} has {len(out)} labels, object {at!r} has "
            f"{len(at.factors)} factors"
        )
    for label, alpha in zip(out, at.factors):
        if label not in alpha.labels:
            raise UnknownLabel(
                f"{what} label {label!r} not in alphabet {alpha.name!r}"
            )
    return out


@dataclass(frozen=True)
class SubKernel:
    """A substochastic matrix dom -> cod with exact rational entries.

    rows maps input outcomes to their output rows; zero entries and
    all-fail rows are never stored, so structural equality coincides
    with semantic equality.
    """

    dom: Obj
    cod: Obj
    rows: dict[Outcome, Row] = field(default_factory=dict)

    def row(self, x) -> Row:
        return self.rows.get(_as_outcome(x, self.dom, "input"), {})

    def prob(self, x, y) -> Fraction:
        return self.row(x).get(_as_outcome(y, self.cod, "output"), Fraction(0))

    def mass(self, x) -> Fraction:
        """Success probability of the row at x (zero if the row is absent)."""
        return sum(self.row(x).values(), Fraction(0))

    def __repr__(self) -> str:
        return f"SubKernel({self.dom!r} -> {self.cod!r}, {len(self.rows)} rows)"


def make_kernel(dom: Obj, cod: Obj, table: Mapping) -> SubKernel:
    """Build a validated kernel from a nested mapping.

    Keys may be bare labels when the corresponding object has a single
    factor.  Probabilities may be Fraction, int, or strings like "3/4".
    Raises NegativeProbability, RowMassExceedsOne (naming the offending
    input tuple), or UnknownLabel.
    """
    rows: dict[Outcome, Row] = {}
    for x_raw, row_raw in table.items():
        x = _as_outcome(x_raw, dom, "input")
        acc: Row = {}
        for y_raw, p_raw in row_raw.items():
            y = _as_outcome(y_raw, cod, "output")
            p = Fraction(p_raw)
            if p < 0:
                raise NegativeProbability(
                    f"entry ({x!r} -> {y!r}) has negative probability {p}"
                )
            if p == 0:
                continue
            acc[y] = acc.get(y, Fraction(0)) + p
        total = sum(acc.values(), Fraction(0))
        if total > 1:
            raise RowMassExceedsOne(f"row at input {x!r} has mass {total} > 1")
        if acc:
            rows[x] = acc
    return SubKernel(dom, cod, rows)


def state(cod: Obj, dist: Mapping) -> SubKernel:
    """A kernel out of the unit object: a subdistribution on cod."""
    return make_kernel(UNIT, cod, {(): dist})


def dirac(at: Obj, point) -> SubKernel:
    """The deterministic total state concentrated on one outcome."""
    out = _as_outcome(point, at, "point")
    return SubKernel(UNIT, at, {(): {out: Fraction(1)}})


def identity(at: Obj) -> SubKernel:
    return SubKernel(at, at, {o: {o: Fraction(1)} for o in at.outcomes()})


def copy(at: Obj) -> SubKernel:
    """a |-> (a, a), flattened; on the unit object this is the identity."""
    return SubKernel(
        at, at.tensor(at), {o: {o + o: Fraction(1)} for o in at.outcomes()}
    )


def discard(at: Obj) -> SubKernel:
    return SubKernel(at, UNIT, {o: {(): Fraction(1)} for o in at.outcomes()})


def swap(left: Obj, right: Obj) -> SubKernel:
    dom = left.tensor(right)
    rows: dict[Outcome, Row] = {}
    n = len(left.factors)
    for o in dom.outcomes():
        rows[o] = {o[n:] + o[:n]: Fraction(1)}
    return SubKernel(dom, right.tensor(left), rows)


def compare(at: Obj) -> SubKernel:
    """The comparator (a, b) |-> a if a = b, failure otherwise.

    This is the partial Frobenius multiplication; it is the only
    structural map that is not total.
    """
    rows: dict[Outcome, Row] = {
        o + o: {o: Fraction(1)} for o in at.outcomes()
    }
    return SubKernel(at.tensor(at), at, rows)


def compose(f: SubKernel, g: SubKernel) -> SubKernel:
    """Sequential composition f ; g, summing over the middle object."""
    if f.cod != g.dom:
        raise TypeMismatch(
            f"cannot compose: first codomain {f.cod!r} != second domain {g.dom!r}"
        )
    rows: dict[Outcome, Row] = {}
    for x, frow in f.rows.items():
        acc: Row = {}
        for y, p in frow.items():
            grow = g.rows.get(y)
            if not grow:
                continue
            for z, q in grow.items():
                acc[z] = acc.get(z, Fraction(0)) + p * q
        if acc:
            rows[x] = acc
    return SubKernel(f.dom, g.cod, rows)


def tensor(f: SubKernel, g: SubKernel) -> SubKernel:
    """Parallel composition on concatenated tuples."""
    rows: dict[Outcome, Row] = {}
    for x1, r1 in f.rows.items():
        for x2, r2 in g.rows.items():
            rows[x1 + x2] = {
                y1 + y2: p * q for y1, p in r1.items() for y2, q in r2.items()
            }
    return SubKernel(f.dom.tensor(g.dom), f.cod.tensor(g.cod), rows)


def failure_probability(f: SubKernel) -> SubKernel:
    """The scalar effect f ; discard.  Its mass at x is f's success
    probability, so the failure probability at x is exactly this
    effect's missing mass — failure stays implicit, as everywhere."""
    return compose(f, discard(f.cod))


def is_total(f: SubKernel) -> bool:
    """Every input succeeds with probability one."""
    if len(f.rows) != f.dom.size:
        return False
    return all(sum(r.values()) == 1 for r in f.rows.values())


def is_deterministic(f: SubKernel) -> bool:
    """Every row is either empty or a single entry with probability one."""
    return all(
        len(r) == 1 and next(iter(r.values())) == 1 for r in f.rows.values()
    )


def is_quasi_total(f: SubKernel) -> bool:
    """Every row has mass zero or one: failure is deterministic."""
    return all(sum(r.values()) == 1 for r in f.rows.values())
