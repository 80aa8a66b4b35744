"""Exact subdistribution kernels over finite alphabets.

A kernel maps each input tuple to a finitely supported map from output
tuples to non-negative rationals summing to at most one.  The missing
mass of a row is the probability of failure; a row that is absent from
the table fails with probability one.  All arithmetic is exact.

Each row is stored as integers: one row denominator D, the lcm of the
reduced entries' denominators, and each output's numerator over D, in
row order.  That form is unique, so equal kernels store equal rows and
== is structural.  A row whose denominator is 1 is exactly one entry
equal to 1: the row of a partial function.  compose, tensor and the
row operations work on these integers alone; Fractions appear only
where a value is read, through prob, mass, row and the rows view, a
read-only mapping of mappings of reduced Fractions built on its first
read.  make_kernel reads probabilities straight into integers and
checks labels, signs and row masses in one walk over the entries,
which codec.kernel_from_json also hands its rows to.

compose numbers the output outcomes in first-seen order; each of g's
rows, placed in context, becomes one tuple of output numbers, shared
by every row of g with the same numbering.  A row of f ; g sums the
terms with one numbering as packed integers (Kronecker substitution):
each of g's rows is packed once per call and slot width into one
integer, its numerators in its own order in slots of W bytes, W the
bytes of the result row's denominator D before reduction, so the sum
is one big-integer multiply-add per term.  Every column sum is at most
D, because f's row and each of g's rows have mass at most one and no
numerator is negative, so no slot carries into the next.  W is taken
per row of f, never from all of g's denominators: a g with many prime
denominators would make every slot huge.  A single term is its row
scaled and is not packed.  compose also whiskers: compose(f, g, at=k)
is f ; (id (x) g (x) id) with g reading the codomain factors of f from
the k-th on, and no identity kernel is built or multiplied through.

The tensor is strict monoidal, so a product is given whole by its
factors, and its rows are only a cache.  tensor returns a deferred
product: a kernel that holds its factors for life, nested products
flattened.  Its rows are built on their first read as a left fold of
binary products, never multiplying a row whose denominator is 1, and
kept.  So ==, rows, compose, relabel, copies and pickles all see
ordinary rows, while codec writes a product's text from its factors,
whether or not its rows were built, and never builds them.

The rest of the package works through compose, tensor, deterministic
(the kernel of a partial function, which every structural map and point
is, built from the inputs where it is defined), and the row operations
normalise, relabel, bend, state_at and fill, and reads rows through
row, prob, mass and the rows view.  Two functions elsewhere touch
stored rows: codec's emission reads a kernel's factors (a kernel that
stores its rows is its own one factor) and their rows, and the law
suite's random kernels are built from integer rows through
_trusted_kernel.

Objects are flat tuples of alphabets; the empty tuple is the monoidal
unit, and tensoring concatenates factor lists, so associators and
unitors are literal identities.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import reduce
from itertools import product, repeat
from math import gcd, lcm, prod
from operator import mul
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

from .errors import (
    BadSplit,
    NegativeProbability,
    RowMassExceedsOne,
    SchemaError,
    TypeMismatch,
    UnknownLabel,
)

Outcome = tuple[str, ...]
# A stored row: (D, {output: numerator over D}), no numerator zero and
# no factor common to D and every numerator.
IntRow = tuple[int, dict[Outcome, int]]
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
    try:
        out = tuple(value)
    except TypeError:  # neither a label nor a sequence of labels
        raise UnknownLabel(
            f"{what} {value!r} is not a label or a sequence of labels"
        ) from None
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


_NO_ROW: Mapping[Outcome, Fraction] = MappingProxyType({})
_ONE = Fraction(1)


class SubKernel:
    """A substochastic matrix dom -> cod with exact rational entries.

    Rows are stored as IntRows (see the module docstring); zero entries
    and all-fail rows are never stored, so structural equality
    coincides with semantic equality.  SubKernel(dom, cod, table) is
    make_kernel(dom, cod, table).  A kernel is immutable: its
    attributes cannot be set, and rows, row(x) and their rows are
    read-only mappings.
    """

    __slots__ = ("dom", "cod", "_rows", "_view")

    def __init__(self, dom: Obj, cod: Obj, table: Mapping = _NO_ROW) -> None:
        _init(self, dom, cod, make_kernel(dom, cod, table)._rows)

    @property
    def _factors(self) -> tuple[SubKernel, ...]:
        """A kernel that stores its rows is its own one factor."""
        return (self,)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubKernel):
            return NotImplemented
        return (
            self.dom == other.dom
            and self.cod == other.cod
            and self._rows == other._rows
        )

    __hash__ = None  # type: ignore[assignment]

    @property
    def rows(self) -> Mapping[Outcome, Mapping[Outcome, Fraction]]:
        """Every stored row as read-only reduced Fractions, in row and
        entry order; built on the first read and kept.  The one entry of
        a row whose denominator is 1 is the shared _ONE."""
        view = self._view
        if view is None:
            view = MappingProxyType(
                {
                    x: MappingProxyType(
                        dict.fromkeys(e, _ONE)
                        if den == 1
                        else {y: Fraction(n, den) for y, n in e.items()}
                    )
                    for x, (den, e) in self._rows.items()
                }
            )
            object.__setattr__(self, "_view", view)
        return view

    def row(self, x) -> Mapping[Outcome, Fraction]:
        """The row at x, read-only (empty if the row is absent)."""
        return self.rows.get(_as_outcome(x, self.dom, "input"), _NO_ROW)

    def prob(self, x, y) -> Fraction:
        row = self._rows.get(_as_outcome(x, self.dom, "input"), (1, {}))
        return Fraction(row[1].get(_as_outcome(y, self.cod, "output"), 0), row[0])

    def mass(self, x) -> Fraction:
        """Success probability of the row at x (zero if the row is absent)."""
        row = self._rows.get(_as_outcome(x, self.dom, "input"))
        return Fraction(sum(row[1].values()), row[0]) if row else Fraction(0)

    def __reduce__(self):
        # Copies and pickles rebuild the kernel without setting attributes.
        return _trusted_kernel, (self.dom, self.cod, self._rows)

    def __repr__(self) -> str:
        return f"SubKernel({self.dom!r} -> {self.cod!r}, {len(self._rows)} rows)"


class _Product(SubKernel):
    """A deferred product (see tensor): a kernel that holds its factors
    for life, its rows built from them on their first read and kept."""

    __slots__ = ("_factors", "_built")

    @property
    def _rows(self) -> dict[Outcome, IntRow]:
        rows = self._built
        if rows is None:
            rows = reduce(_times, self._factors)._rows
            object.__setattr__(self, "_built", rows)
        return rows


def _init(k: SubKernel, dom: Obj, cod: Obj, rows: dict[Outcome, IntRow]) -> None:
    for name, value in (("dom", dom), ("cod", cod), ("_rows", rows), ("_view", None)):
        object.__setattr__(k, name, value)


def _trusted_kernel(dom: Obj, cod: Obj, rows: dict[Outcome, IntRow]) -> SubKernel:
    """The kernel that stores rows as they are: each an IntRow, and no
    row or row dict held by another kernel.  Nothing is checked."""
    k = object.__new__(SubKernel)
    _init(k, dom, cod, rows)
    return k


def _reduced(den: int, nums: dict[Outcome, int]) -> IntRow:
    """(den, nums) as an IntRow: their common factor divided out, nums
    itself where there is none."""
    c = gcd(den, *nums.values())
    if c == 1:
        return den, nums
    return den // c, {y: n // c for y, n in nums.items()}


# The rational strings of README "File formats": [sign] int ["/" int],
# the denominator not zero, or a decimal with digits on at least one
# side of the point, with whitespace around, in ASCII digits and
# whitespace only.  No exponents: "1e-10000000" would ask for a
# 33-million-bit denominator.  No run of digits is longer than Python's
# default int conversion limit, 4300 digits, so int() reads each run.
_DIGITS = r"\d{1,4300}"
_RATIONAL = re.compile(
    rf"\s*([+-]?)(?:({_DIGITS})(?:/(?=0*[1-9])({_DIGITS}))?"
    rf"|(?=\.?\d)(\d{{0,4300}})\.(\d{{0,4300}}))\s*",
    re.ASCII,
)


def _ratio(value: Any) -> tuple[int, int]:
    """The reduced (numerator, denominator) of a Fraction, an int or a
    string in the _RATIONAL grammar: the one conversion of a rational to
    integers.  Anything else, bools and floats included, is SchemaError."""
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        return value.numerator, value.denominator
    m = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if m is None:
        raise SchemaError(f"not a rational: {value!r}")
    sign, num, den, whole, frac = m.groups()
    if num is None:  # a decimal; each run is read alone, within int()'s limit
        d = 10 ** len(frac)
        n = int(whole or 0) * d + int(frac or 0)
    else:
        n, d = int(num), int(den or 1)
    c = gcd(n, d)
    return (-n if sign == "-" else n) // c, d // c


def parse_fraction(value: Any) -> Fraction:
    """The one reader of a caller's or a file's rational: a Fraction as
    it is, anything else as _ratio reads it."""
    if isinstance(value, Fraction):
        return value
    return Fraction(*_ratio(value))


def make_kernel(dom: Obj, cod: Obj, table: Mapping) -> SubKernel:
    """Build a validated kernel from a nested mapping.

    Keys may be bare labels when the corresponding object has a single
    factor.  Probabilities may be Fraction, int, or strings like "3/4"
    (see parse_fraction).  Raises SchemaError on any other probability
    or on two keys that name one input, NegativeProbability,
    RowMassExceedsOne (naming the offending input tuple), or
    UnknownLabel, also on a key that is no label or sequence of labels.
    Faults are found row by row, and within a row entry by entry: an
    entry's labels, then its probability, then its sign; then the mass.
    """
    return _checked_kernel(dom, cod, ((x, row.items()) for x, row in table.items()))


def _checked_kernel(dom: Obj, cod: Obj, rows_in: Iterable) -> SubKernel:
    """make_kernel over (input, [(output, p), ...]) rows, an output's
    repeats summed: the one walk that checks a kernel's entries, also
    for codec.kernel_from_json, which hands over each p as it is."""
    rows: dict[Outcome, IntRow] = {}
    # Output tuples already checked against cod: each is checked once.
    outputs: set[Outcome] = set()
    inputs: set[Outcome] = set()  # rows holds only the nonempty rows
    # Each distinct probability string's _ratio, read once per kernel.
    # Only strings are kept: as dict keys, True and 1 are one key.
    parsed: dict[str, tuple[int, int]] = {}
    for x_raw, entries in rows_in:
        x = _as_outcome(x_raw, dom, "input")
        if x in inputs:
            raise SchemaError(f"duplicate input {x!r}")
        inputs.add(x)
        # Each output's (numerator, denominator), read once per entry.
        acc: dict[Outcome, tuple[int, int]] = {}
        for y_raw, p in entries:
            if type(y_raw) is tuple and y_raw in outputs:
                y = y_raw
            else:
                y = _as_outcome(y_raw, cod, "output")
                outputs.add(y)
            nd = parsed.get(p) if type(p) is str else None
            if nd is None:
                nd = _ratio(p)
                if type(p) is str:
                    parsed[p] = nd
            if nd[0] <= 0:  # one test for both, as nearly every entry is positive
                if nd[0]:
                    # Checked before repeats are summed, which could cancel it.
                    raise NegativeProbability(
                        f"entry ({x!r} -> {y!r}) has negative probability "
                        f"{Fraction(*nd)}"
                    )
                continue
            if y in acc:  # two keys may name one outcome ("t" and ("t",))
                nd = _ratio(Fraction(*acc[y]) + Fraction(*nd))
            acc[y] = nd
        if not acc:
            continue
        den = lcm(*(d for _, d in acc.values()))
        nums = {y: n * (den // d) for y, (n, d) in acc.items()}
        rows[x] = den, nums
        total = sum(nums.values())
        if total > den:
            raise RowMassExceedsOne(
                f"row at input {x!r} has mass {Fraction(total, den)} > 1"
            )
    return _trusted_kernel(dom, cod, rows)


def state(cod: Obj, dist: Mapping) -> SubKernel:
    """A kernel out of the unit object: a subdistribution on cod."""
    return make_kernel(UNIT, cod, {(): dist})


def deterministic(
    dom: Obj, cod: Obj, fn: PartialFn, defined: Optional[Iterable[Outcome]] = None
) -> SubKernel:
    """The kernel of the partial function fn : dom -> cod.  Input x gets
    the row {fn(x): 1}, or no row where fn(x) is None; fn is called once
    per input, in dom.outcomes() order, and is trusted to return
    outcomes of cod.  A partial fn may name the inputs where it can be
    defined, inputs of dom in dom.outcomes() order: fn is then called on
    those alone, so the time is the rows', not the domain's."""
    rows: dict[Outcome, IntRow] = {}
    for x in dom.outcomes() if defined is None else defined:
        y = fn(x)
        if y is not None:
            rows[x] = 1, {y: 1}
    return _trusted_kernel(dom, cod, rows)


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
        at.tensor(at), at, lambda o: o[:n], (a + a for a in at.outcomes())
    )


def _numbered_row(
    row: IntRow,
    pre: Outcome,
    post: Outcome,
    index: dict[Outcome, int],
    outcomes: list[Outcome],
    numberings: dict[tuple[int, ...], tuple[int, ...]],
    packed: dict[int, int],
) -> tuple[int, tuple[int, ...], Iterable[int], dict[int, int]]:
    """A row of g with each of its outputs z placed in context as
    pre + z + post, as (D, numbering, numerators, packed): numbering
    holds each output's number in row order, and packed is the row's
    cache of its numerators packed at each slot width (see _packed),
    one cache for every context of the row.  Outputs new to index are
    numbered in first-seen order and appended to outcomes, so
    outcomes[i] is output number i.  Equal numberings are one interned
    tuple."""
    den, nums = row
    numbering = []
    for z in nums:
        y = pre + z + post
        i = index.get(y)
        if i is None:
            i = index[y] = len(outcomes)
            outcomes.append(y)
        numbering.append(i)
    key = tuple(numbering)
    return den, numberings.setdefault(key, key), nums.values(), packed


def _packed(gy: tuple, width: int) -> int:
    """A numbered row's numerators packed into one integer, numerator t
    in bytes t * width up to (t + 1) * width, little end first, and
    kept in the row's cache under width."""
    _, _, nums, packed = gy
    n = packed[width] = int.from_bytes(
        b"".join([m.to_bytes(width, "little") for m in nums]), "little"
    )
    return n


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
    up by the slice of y that g reads, and numbered (see _numbered_row)
    once per y, only for the outputs that f reaches.

    A row of f over D_f with numerators n_y gives one term per y where
    g has a row, over D_y.  Over M, the lcm of those D_y, the term's
    scale is n_y * (M // D_y), and the row is summed over D_f * M, then
    reduced.  Terms sharing a numbering are summed together: one term
    is its row times its scale, and two or more are summed as packed
    integers, one multiply-add per term.  Each numerator of g's row
    takes a slot of W bytes (see _packed), W the bytes of D_f * M, and
    no slot carries into the next: a slot's sum is at most its
    column's sum, and summing every column gives at most
    sum(n_y * (M // D_y) * D_y) = M * sum(n_y) <= D_f * M, as every
    numerator is positive and every row's mass is at most one.  The
    column sums then land on their output numbers in first-seen order,
    which is the order the outputs are first met through f's row and
    each of g's rows in turn.
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
        factors = f.cod.factors
        if factors[k:j] != g.dom.factors:
            left, right = Obj(factors[:k]), Obj(factors[j:])
            require_composable(f.cod, left.tensor(g.dom).tensor(right))
        cod = Obj(factors[:k] + g.cod.factors + factors[j:])
    index: dict[Outcome, int] = {}
    outcomes: list[Outcome] = []
    numberings: dict[tuple[int, ...], tuple[int, ...]] = {}
    grows = g._rows
    # Each row of g's packing cache, shared by all its contexts.
    packs: dict[Outcome, dict[int, int]] = {}
    # g's row numbered for each output y of f, or () where g has none.
    g_at: dict[Outcome, tuple] = {}
    # The byte slices of the slots of a packed sum, by (width, count).
    slots: dict[tuple[int, int], list[slice]] = {}
    rows: dict[Outcome, IntRow] = {}
    for x, (fden, frow) in f._rows.items():
        terms = []
        for y, n in frow.items():
            gy = g_at.get(y)
            if gy is None:
                gx = y[k:j]
                grow = grows.get(gx)
                gy = g_at[y] = (
                    _numbered_row(
                        grow, y[:k], y[j:], index, outcomes, numberings,
                        packs.setdefault(gx, {}),
                    )
                    if grow
                    else ()
                )
            if gy:
                terms.append((n, gy))
        if not terms:
            continue
        lden = lcm(*[gy[0] for _, gy in terms])
        den = fden * lden
        width = (den.bit_length() + 7) // 8
        # An interned numbering is keyed by identity, never hashed again.
        groups: dict[int, tuple[tuple[int, ...], list[int], list]] = {}
        for n, gy in terms:
            group = groups.get(id(gy[1]))
            if group is None:
                group = groups[id(gy[1])] = (gy[1], [], [])
            group[1].append(n * (lden // gy[0]))
            group[2].append(gy)
        acc: dict[int, int] = {}
        for numbering, scales, gys in groups.values():
            if len(gys) == 1:
                sums = map(scales[0].__mul__, gys[0][2])
            else:
                # No packed row is 0, as every numerator is positive.
                packed = [gy[3].get(width) or _packed(gy, width) for gy in gys]
                b = sum(map(mul, scales, packed)).to_bytes(
                    width * len(numbering), "little"
                )
                cuts = slots.get((width, len(numbering)))
                if cuts is None:
                    cuts = slots[width, len(numbering)] = [
                        slice(t, t + width) for t in range(0, len(b), width)
                    ]
                sums = map(int.from_bytes, map(b.__getitem__, cuts), repeat("little"))
            for i, s in zip(numbering, sums):
                acc[i] = acc.get(i, 0) + s
        c = gcd(den, *acc.values())
        rows[x] = den // c, {outcomes[i]: s // c for i, s in acc.items()}
    return _trusted_kernel(f.dom, cod, rows)


def _times(left: SubKernel, right: SubKernel) -> SubKernel:
    """left (x) right, each factor's rows listed once (see _row_product)."""
    rows0, rows1 = (
        [
            (x, den, y, (den, list(e.items()), gcd(*e.values()), y))
            for x, (den, e) in k._rows.items()
            for y in (next(iter(e)),)
        ]
        for k in (left, right)
    )
    return _trusted_kernel(
        left.dom.tensor(right.dom),
        left.cod.tensor(right.cod),
        {
            # Two rows of partial functions, as in every structural map.
            x0 + x1: (1, {y0 + y1: 1}) if d0 == d1 == 1 else _row_product(r0, r1)
            for x0, d0, y0, r0 in rows0
            for x1, d1, y1, r1 in rows1
        },
    )


def _row_product(r0: tuple, r1: tuple) -> IntRow:
    """The product of two rows, each given as (D, entries, gcd of the
    numerators, first output).  A row whose D is 1 is one entry, 1: its
    product with a row is that row with the one output joined on, and
    is already reduced.  Otherwise the product of (D0, n0s) and
    (D1, n1s) is (D0 * D1, n0 * n1) over c = gcd(D0, gcd(n1s)) *
    gcd(D1, gcd(n0s)), the factor those share, as D0 is prime to
    gcd(n0s) and D1 to gcd(n1s)."""
    d0, e0, g0, y0 = r0
    d1, e1, g1, y1 = r1
    if d0 == 1:
        return d1, {y0 + y: n for y, n in e1}
    if d1 == 1:
        return d0, {y + y1: n for y, n in e0}
    c = gcd(d0, g1) * gcd(d1, g0)
    return d0 * d1 // c, {a + b: m * n // c for a, m in e0 for b, n in e1}


def tensor(f: SubKernel, *gs: SubKernel) -> SubKernel:
    """Parallel composition f (x) g1 (x) g2 ... on concatenated tuples,
    as a deferred product: a kernel that holds its factors, a deferred
    product's own factors spliced in, and builds its rows from them on
    their first read, as the left fold of _times over the factors.
    Rows and entries come out in that fold's order: each factor's own
    order, the leftmost factor outermost.  A row of a structural map
    has denominator 1, and is never multiplied.  f alone is f."""
    if not gs:
        return f
    factors = tuple(h for k in (f, *gs) for h in k._factors)
    k = object.__new__(_Product)
    for name, value in (
        ("dom", Obj(tuple(a for h in factors for a in h.dom.factors))),
        ("cod", Obj(tuple(a for h in factors for a in h.cod.factors))),
        ("_view", None),
        ("_factors", factors),
        ("_built", None),
    ):
        object.__setattr__(k, name, value)
    return k


def normalise(f: SubKernel) -> SubKernel:
    """Divide every row by its mass; all-fail rows stay all-fail.

    The result is quasi-total and normalisation is idempotent.  Over the
    row's denominator, entry n becomes n / (sum of numerators), reduced.
    """
    rows: dict[Outcome, IntRow] = {}
    for x, (_, e) in f._rows.items():
        total = sum(e.values())
        c = gcd(total, *e.values())
        rows[x] = total // c, {y: n // c for y, n in e.items()}
    return _trusted_kernel(f.dom, f.cod, rows)


def relabel(
    f: SubKernel, fn: Callable[[Outcome, Outcome], Optional[Outcome]], cod: Obj
) -> SubKernel:
    """f followed by the partial deterministic map (x, y) |-> fn(x, y)
    into cod: the entry at (x, y) moves to output fn(x, y) of row x, or
    is dropped where fn(x, y) is None.  Entries landing on one output
    are summed, and a row left with no entry is not stored."""
    rows: dict[Outcome, IntRow] = {}
    for x, (den, e) in f._rows.items():
        acc: dict[Outcome, int] = {}
        for y, n in e.items():
            z = fn(x, y)
            if z is not None:
                acc[z] = acc[z] + n if z in acc else n
        if acc:
            rows[x] = _reduced(den, acc)
    return _trusted_kernel(f.dom, cod, rows)


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
    rows: dict[Outcome, IntRow] = {}
    for x, (den, e) in f._rows.items():
        parts: dict[Outcome, dict[Outcome, int]] = {}
        for y, n in e.items():
            parts.setdefault(y[:split], {})[y[split:]] = n
        for a, part in parts.items():
            rows[a + x] = _reduced(den, part)
    return _trusted_kernel(kept.tensor(f.dom), rest, rows)


def state_at(f: SubKernel, x: Outcome) -> SubKernel:
    """The state I -> cod that f gives at input x, all-fail where f has
    no row at x."""
    row = f._rows.get(x)
    return _trusted_kernel(UNIT, f.cod, {(): (row[0], dict(row[1]))} if row else {})


def fill(f: SubKernel, default: SubKernel) -> SubKernel:
    """f with each all-fail row replaced by the state `default`."""
    rows: dict[Outcome, IntRow] = {}
    for x in f.dom.outcomes():
        row = f._rows.get(x) or default._rows.get(())
        if row:
            rows[x] = row[0], dict(row[1])
    return _trusted_kernel(f.dom, f.cod, rows)


def failure_probability(f: SubKernel) -> SubKernel:
    """The scalar effect f ; discard: each row summed onto the one output.
    Its mass at x is f's success probability, so the failure probability
    at x is this effect's missing mass — failure stays implicit."""
    return relabel(f, lambda x, y: (), UNIT)


def is_total(f: SubKernel) -> bool:
    """Every input succeeds with probability one."""
    return len(f._rows) == f.dom.size and is_quasi_total(f)


def is_deterministic(f: SubKernel) -> bool:
    """Every row is either empty or a single entry with probability one:
    its denominator is 1."""
    return all(den == 1 for den, _ in f._rows.values())


def is_quasi_total(f: SubKernel) -> bool:
    """Every row has mass zero or one: failure is deterministic."""
    return all(sum(e.values()) == den for den, e in f._rows.values())
