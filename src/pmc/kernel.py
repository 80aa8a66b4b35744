"""Exact subdistribution kernels over finite alphabets.

A kernel maps each input tuple to a finitely supported map from output
tuples to non-negative rationals summing to at most one.  The missing
mass of a row is the probability of failure; a row that is absent from
the table fails with probability one.  All arithmetic is exact.
Kernels hold reduced fractions.Fraction entries; compose and the
row-mass check in make_kernel sum integer numerators over one common
denominator per row internally, and only the finished row becomes
Fractions again.  compose numbers the output outcomes in first-seen
order and sums each row keyed by those numbers; make_kernel checks each
distinct output tuple against the codomain once per call.  compose also
whiskers: compose(f, g, at=k) is f ; (id (x) g (x) id) with g reading
the codomain factors of f from the k-th on, and no identity kernel is
built or multiplied through.  tensor multiplies any number of factors
out as balanced binary products, in the row and entry order a left
fold of binary products would give, and never multiplies by ONE.

This module is the only one that reads or builds rows.  The rest of
the package works through compose, tensor, deterministic (the kernel of
a partial function, which every structural map and point is), and the
row operations normalise, relabel, bend, state_at and fill, and reads a
single row, read-only, through row, prob and mass.

Objects are flat tuples of alphabets; the empty tuple is the monoidal
unit, and tensoring concatenates factor lists, so associators and
unitors are literal identities.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm, prod
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

from .errors import (
    BadSplit,
    NegativeProbability,
    RowMassExceedsOne,
    SchemaError,
    TypeMismatch,
    UnknownLabel,
)

Outcome = tuple[str, ...]
Row = dict[Outcome, Fraction]
IntRow = tuple[int, list[tuple[int, int]]]
PartialFn = Callable[[Outcome], Optional[Outcome]]  # None where undefined


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
        return prod(len(a.labels) for a in self.factors)

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
        if label not in alpha.labels:  # a tuple test: unhashables are not found
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

    def row(self, x) -> Mapping[Outcome, Fraction]:
        """The row at x, read-only (empty if the row is absent)."""
        row = self.rows.get(_as_outcome(x, self.dom, "input"), {})
        return MappingProxyType(row)

    def prob(self, x, y) -> Fraction:
        return self.row(x).get(_as_outcome(y, self.cod, "output"), Fraction(0))

    def mass(self, x) -> Fraction:
        """Success probability of the row at x (zero if the row is absent)."""
        return sum(self.row(x).values(), Fraction(0))

    def __repr__(self) -> str:
        return f"SubKernel({self.dom!r} -> {self.cod!r}, {len(self.rows)} rows)"


# The rational strings of README "File formats": [sign] int ["/" int],
# or a decimal with digits on at least one side of the point, with
# whitespace around, in ASCII digits and whitespace only.  It is checked
# before Fraction() reads the string, so the grammar is the same on
# every Python: Fraction() also reads "_" between digits (from 3.11),
# spaces around "/" (from 3.12), exponents and non-ASCII digits, and
# "1e-10000000", 11 characters, would build a 33-million-bit
# denominator.  No run of digits may be longer than Python's default
# int conversion limit, 4300 digits: Fraction() works on a long decimal
# in time superlinear in its length before int() refuses it.
_DIGITS = r"\d{1,4300}"
_RATIONAL = re.compile(
    rf"\s*[+-]?(?:{_DIGITS}(?:/{_DIGITS})?|{_DIGITS}\.\d{{0,4300}}|\.{_DIGITS})\s*",
    re.ASCII,
)


def parse_fraction(value: Any) -> Fraction:
    """The one reader of a caller's or a file's rational: a Fraction, as
    it is, an int, or a string in the _RATIONAL grammar; anything else,
    bools and floats included, raises SchemaError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise SchemaError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise SchemaError(f"not a rational: {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"not a rational: {value!r}") from exc
    raise SchemaError(f"not a rational: {value!r}")


def make_kernel(dom: Obj, cod: Obj, table: Mapping) -> SubKernel:
    """Build a validated kernel from a nested mapping.

    Keys may be bare labels when the corresponding object has a single
    factor.  Probabilities may be Fraction, int, or strings like "3/4"
    (see parse_fraction).  Raises SchemaError on any other probability
    or on two keys that name one input, NegativeProbability,
    RowMassExceedsOne (naming the offending input tuple), or
    UnknownLabel.
    """
    rows: dict[Outcome, Row] = {}
    # Output tuples already checked against cod: each is checked once.
    outputs: set[Outcome] = set()
    inputs: set[Outcome] = set()  # rows holds only the nonempty rows
    for x_raw, row_raw in table.items():
        x = _as_outcome(x_raw, dom, "input")
        if x in inputs:
            raise SchemaError(f"duplicate input {x!r}")
        inputs.add(x)
        acc: Row = {}
        for y_raw, p_raw in row_raw.items():
            if type(y_raw) is tuple and y_raw in outputs:
                y = y_raw
            else:
                y = _as_outcome(y_raw, cod, "output")
                outputs.add(y)
            p = parse_fraction(p_raw)
            if p.numerator < 0:
                raise NegativeProbability(
                    f"entry ({x!r} -> {y!r}) has negative probability {p}"
                )
            if not p.numerator:
                continue
            # Two keys may name one outcome ("t" and ("t",)).
            acc[y] = acc[y] + p if y in acc else p
        if not acc:
            continue
        den, nums = _row_numerators(acc)
        total = sum(nums)
        if total > den:
            raise RowMassExceedsOne(
                f"row at input {x!r} has mass {Fraction(total, den)} > 1"
            )
        rows[x] = acc
    return SubKernel(dom, cod, rows)


def state(cod: Obj, dist: Mapping) -> SubKernel:
    """A kernel out of the unit object: a subdistribution on cod."""
    return make_kernel(UNIT, cod, {(): dist})


# Every deterministic entry: one shared, immutable value, which tensor
# recognises by identity and never multiplies by.
ONE = Fraction(1)


def deterministic(dom: Obj, cod: Obj, fn: PartialFn) -> SubKernel:
    """The kernel of the partial function fn : dom -> cod.  Input x gets
    the row {fn(x): 1}, or no row where fn(x) is None; fn is called once
    per input, in dom.outcomes() order, and is trusted to return
    outcomes of cod."""
    rows: dict[Outcome, Row] = {}
    for x in dom.outcomes():
        y = fn(x)
        if y is not None:
            rows[x] = {y: ONE}
    return SubKernel(dom, cod, rows)


def dirac(at: Obj, point) -> SubKernel:
    """The deterministic total state concentrated on one outcome."""
    out = _as_outcome(point, at, "point")
    return deterministic(UNIT, at, lambda x: out)


def identity(at: Obj) -> SubKernel:
    return deterministic(at, at, lambda a: a)


def copy(at: Obj) -> SubKernel:
    """a |-> (a, a), flattened; on the unit object this is the identity."""
    return deterministic(at, at.tensor(at), lambda a: a + a)


def discard(at: Obj) -> SubKernel:
    return deterministic(at, UNIT, lambda a: ())


def swap(left: Obj, right: Obj) -> SubKernel:
    n = len(left.factors)
    return deterministic(
        left.tensor(right), right.tensor(left), lambda o: o[n:] + o[:n]
    )


def compare(at: Obj) -> SubKernel:
    """The comparator (a, b) |-> a if a = b, failure otherwise: the
    partial diagonal function, copy's function read backwards.

    This is the partial Frobenius multiplication; it is the only
    structural map that is not total.
    """
    n = len(at.factors)
    return deterministic(
        at.tensor(at), at, lambda o: o[:n] if o[:n] == o[n:] else None
    )


def _row_numerators(row: Row) -> tuple[int, list[int]]:
    """The lcm D of a row's denominators, and its entries' numerators
    over D in row order."""
    den = lcm(*(q.denominator for q in row.values()))
    return den, [q.numerator * (den // q.denominator) for q in row.values()]


def _numbered_row(
    den_nums: tuple[int, list[int]],
    row: Row,
    pre: Outcome,
    post: Outcome,
    index: dict[Outcome, int],
    outcomes: list[Outcome],
) -> IntRow:
    """A row given as _row_numerators gives it, (den, numerators), with
    each of its outputs z placed in context as pre + z + post, as
    (den, [(output's number, numerator)]) in row order.  Outputs new to
    index are numbered in first-seen order and appended to outcomes, so
    outcomes[i] is output number i."""
    den, nums = den_nums
    numbered = []
    for z, n in zip(row, nums):
        y = pre + z + post
        i = index.get(y)
        if i is None:
            i = index[y] = len(outcomes)
            outcomes.append(y)
        numbered.append((i, n))
    return den, numbered


def require_composable(cod: Obj, dom: Obj) -> None:
    """Raise TypeMismatch unless a kernel into cod can feed one out of dom."""
    if cod != dom:
        raise TypeMismatch(
            f"cannot compose: first codomain {cod!r} != second domain {dom!r}"
        )


def compose(f: SubKernel, g: SubKernel, at: Optional[int] = None) -> SubKernel:
    """Sequential composition f ; g, summing over the middle object.

    With at=k, g acts on f's codomain factors from the k-th on, and the
    factors before it (L) and after it (R) pass through unchanged: the
    result is the whiskered composite f ; (id_L (x) g (x) id_R), and f's
    codomain must be that kernel's domain, L (x) g.dom (x) R, and an
    offset that does not place g.dom inside f's codomain raises
    TypeMismatch.  Without
    at, f's codomain must be g's domain itself, so a plain composition
    never whiskers by accident.  g's row for an output y of f is looked
    up by the slice of y that g reads.  Each distinct slice has its row
    converted to integers once, however many contexts (y's factors in L
    and R) share it, and only the rows that f reaches are converted.

    Each output row is summed in integers: every product p * q is
    brought over one common denominator D for the row (an lcm), and the
    sums become reduced Fractions n / D only when the row is stored.
    The sums are keyed by output numbers (see _numbered_row), whose
    hashes cost nothing, not by outcome tuples, whose hashes are
    recomputed on every lookup.
    """
    if at is None:
        require_composable(f.cod, g.dom)
        k, j, cod = 0, len(g.dom.factors), g.cod
    else:
        k, j = at, at + len(g.dom.factors)
        if not 0 <= k <= len(f.cod.factors) - len(g.dom.factors):
            raise TypeMismatch(
                f"cannot compose: offset {k} does not place domain "
                f"{g.dom!r} inside first codomain {f.cod!r}"
            )
        left, right = Obj(f.cod.factors[:k]), Obj(f.cod.factors[j:])
        require_composable(f.cod, left.tensor(g.dom).tensor(right))
        cod = left.tensor(g.cod).tensor(right)
    index: dict[Outcome, int] = {}
    outcomes: list[Outcome] = []
    # g's rows are converted on first use: f may reach only a few of them.
    # g_nums holds them by slice, g_int numbered for each output of f.
    g_nums: dict[Outcome, tuple[int, list[int]]] = {}
    g_int: dict[Outcome, IntRow] = {}
    rows: dict[Outcome, Row] = {}
    for x, frow in f.rows.items():
        # (numerator of p, denominator of p * q, g's row as numerators)
        terms = []
        for y, p in frow.items():
            gy = g_int.get(y)
            if gy is None:
                s = y[k:j]
                grow = g.rows.get(s)
                if not grow:
                    continue
                nums = g_nums.get(s)
                if nums is None:
                    nums = g_nums[s] = _row_numerators(grow)
                gy = g_int[y] = _numbered_row(
                    nums, grow, y[:k], y[j:], index, outcomes
                )
            terms.append((p.numerator, p.denominator * gy[0], gy[1]))
        if not terms:
            continue
        den = lcm(*(dd for _, dd, _ in terms))
        acc: dict[int, int] = {}
        for num, dd, grow in terms:
            scale = num * (den // dd)
            for i, n in grow:
                acc[i] = acc.get(i, 0) + scale * n
        rows[x] = {outcomes[i]: Fraction(n, den) for i, n in acc.items()}
    return SubKernel(f.dom, cod, rows)


def _product(ks: Sequence[SubKernel]) -> SubKernel:
    """ks[0] (x) ks[1] (x) ...: ks[0] alone, or the product of its two
    halves' products, each half's rows listed once as (x, entries).
    With factors of like size, each half holds about the square root of
    the result's entries, so the halves cost little beside the result."""
    if len(ks) == 1:
        return ks[0]
    cut = (len(ks) + 1) // 2
    left, right = _product(ks[:cut]), _product(ks[cut:])
    rows0, rows = (
        [(x, list(r.items())) for x, r in k.rows.items()] for k in (left, right)
    )
    return SubKernel(
        left.dom.tensor(right.dom),
        left.cod.tensor(right.cod),
        {
            x0 + x: {
                y0 + y: q if p is ONE else p if q is ONE else p * q
                for y0, p in e0
                for y, q in e
            }
            for x0, e0 in rows0
            for x, e in rows
        },
    )


def tensor(f: SubKernel, *gs: SubKernel) -> SubKernel:
    """Parallel composition f (x) g1 (x) g2 ... on concatenated tuples,
    multiplied out as balanced binary products (see _product).  Rows and
    entries come out in a left fold's order: each factor's own order,
    the leftmost factor outermost.  Where an entry is ONE, as in every
    structural map, the other entry is stored without multiplying; an
    entry equal to 1 that is not ONE is multiplied, which is exact."""
    return _product((f, *gs))


def normalise(f: SubKernel) -> SubKernel:
    """Divide every row by its mass; all-fail rows stay all-fail.

    The result is quasi-total and normalisation is idempotent.  Over the
    row's common denominator, entry n becomes n / (sum of numerators).
    """
    rows: dict[Outcome, Row] = {}
    for x, row in f.rows.items():
        den, nums = _row_numerators(row)
        total = sum(nums)
        if total == den:
            rows[x] = dict(row)
        else:
            rows[x] = {y: Fraction(n, total) for y, n in zip(row, nums)}
    return SubKernel(f.dom, f.cod, rows)


def relabel(
    f: SubKernel, fn: Callable[[Outcome, Outcome], Optional[Outcome]], cod: Obj
) -> SubKernel:
    """f followed by the partial deterministic map (x, y) |-> fn(x, y)
    into cod: the entry at (x, y) moves to output fn(x, y) of row x, or
    is dropped where fn(x, y) is None.  Entries landing on one output
    are summed, and a row left with no entry is not stored."""
    rows: dict[Outcome, Row] = {}
    for x, row in f.rows.items():
        acc: Row = {}
        for y, p in row.items():
            z = fn(x, y)
            if z is not None:
                acc[z] = acc[z] + p if z in acc else p
        if acc:
            rows[x] = acc
    return SubKernel(f.dom, cod, rows)


def graph(f: SubKernel) -> SubKernel:
    """copy ; (f (x) id) : X -> Y (x) X, the output beside its input."""
    return relabel(f, lambda x, y: y + x, f.cod.tensor(f.dom))


def split_cod(f: SubKernel, split: int) -> tuple[Obj, Obj]:
    """f's codomain as (its first `split` factors, the rest)."""
    if not 0 <= split <= len(f.cod.factors):
        raise BadSplit(
            f"split {split} outside 0..{len(f.cod.factors)} for codomain {f.cod!r}"
        )
    return Obj(f.cod.factors[:split]), Obj(f.cod.factors[split:])


def bend(f: SubKernel, split: int) -> SubKernel:
    """f : X -> A (x) B, A its first `split` codomain factors, as the
    kernel A (x) X -> B: the entry at (x, a + b) moves to row a + x,
    output b."""
    kept, rest = split_cod(f, split)
    rows: dict[Outcome, Row] = {}
    for x, row in f.rows.items():
        for y, p in row.items():
            rows.setdefault(y[:split] + x, {})[y[split:]] = p
    return SubKernel(kept.tensor(f.dom), rest, rows)


def state_at(f: SubKernel, x: Outcome) -> SubKernel:
    """The state I -> cod that f gives at input x, all-fail where f has
    no row at x."""
    row = f.rows.get(x)
    return SubKernel(UNIT, f.cod, {(): dict(row)} if row else {})


def fill(f: SubKernel, default: SubKernel) -> SubKernel:
    """f with each all-fail row replaced by the state `default`."""
    rows: dict[Outcome, Row] = {}
    for x in f.dom.outcomes():
        row = f.rows.get(x) or default.rows.get(())
        if row:
            rows[x] = dict(row)
    return SubKernel(f.dom, f.cod, rows)


def failure_probability(f: SubKernel) -> SubKernel:
    """The scalar effect f ; discard: each row summed onto the one output.
    Its mass at x is f's success probability, so the failure probability
    at x is this effect's missing mass — failure stays implicit."""
    return relabel(f, lambda x, y: (), UNIT)


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
