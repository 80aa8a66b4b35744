"""Kernel construction, structural maps, predicates, and category laws."""

from __future__ import annotations

import copy
import pickle
import time
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from types import SimpleNamespace

import pytest
import hypothesis.strategies as st
from hypothesis import example, given

from pmc import kernel as K
from pmc.errors import (
    BadSplit,
    NegativeProbability,
    RowMassExceedsOne,
    SchemaError,
    TypeMismatch,
    UnknownLabel,
)
from pmc.diagram import Copy, Gen, Id, Swap, Tensor, evaluate
from pmc.kernel import Alphabet, Obj, SubKernel, UNIT, make_kernel, obj
from pmc.laws import REGISTRY, check_law

from conftest import functions, kernels, objects

B = Alphabet("bool", ("t", "f"))
BO = obj(B)
HALF = Fraction(1, 2)


def bk(table):
    return make_kernel(BO, BO, table)


# -- construction and validation --------------------------------------------


def test_make_kernel_accepts_bare_labels_and_strings():
    f = bk({"t": {"t": "1/2", "f": "1/4"}, "f": {"f": 1}})
    assert f.prob("t", "t") == HALF
    assert f.prob("t", "f") == Fraction(1, 4)
    assert f.prob("f", "f") == 1
    assert f.prob("f", "t") == 0


@pytest.mark.parametrize("p", [0.1, True, "x", "1e-10000000"])
def test_make_kernel_reads_probabilities_as_parse_fraction_does(p):
    # Fraction() would store 0.1 as 3602879701896397/36028797018963968,
    # True as 1, and spend seconds on the exponent.
    start = time.perf_counter()
    with pytest.raises(SchemaError) as err:
        bk({"t": {"t": p}})
    assert str(err.value) == f"not a rational: {p!r}"
    assert time.perf_counter() - start < 0.5


def test_make_kernel_drops_zero_entries_and_empty_rows():
    f = bk({"t": {"t": 0}, "f": {"f": 1}})
    assert ("t",) not in f.rows
    assert f.mass("t") == 0


def test_make_kernel_rejects_negative_probability():
    with pytest.raises(NegativeProbability):
        bk({"t": {"t": Fraction(-1, 2)}})


def test_make_kernel_rejects_row_mass_above_one():
    with pytest.raises(RowMassExceedsOne) as err:
        bk({"t": {"t": HALF, "f": Fraction(3, 4)}})
    assert "('t',)" in str(err.value)


def test_make_kernel_row_mass_is_exact():
    d = Alphabet("d", ("a", "b", "c", "e"))
    whole = {"a": Fraction(1, 2), "b": "1/3", "c": Fraction(1, 6)}
    k = make_kernel(BO, obj(d), {"t": whole})
    assert k.mass("t") == 1 and K.is_quasi_total(k)
    with pytest.raises(RowMassExceedsOne) as err:
        make_kernel(BO, obj(d), {"t": {**whole, "e": Fraction(1, 1000)}})
    assert str(err.value) == "row at input ('t',) has mass 1001/1000 > 1"


def test_make_kernel_sums_keys_naming_one_outcome():
    f = bk({"t": {"t": Fraction(1, 4), ("t",): "1/4", "f": 0}, "f": {"f": 1}})
    assert f.rows == {("t",): {("t",): HALF}, ("f",): {("f",): Fraction(1)}}
    assert all(
        type(q) is Fraction for row in f.rows.values() for q in row.values()
    )


@pytest.mark.parametrize("first", [{"t": 1}, {}, {"f": 0}])
def test_make_kernel_rejects_keys_naming_one_input(first):
    # As kernel_from_json refuses a repeated "in".  An empty or all-zero
    # first row is never stored, and is refused all the same.
    with pytest.raises(SchemaError, match=r"^duplicate input \('t',\)$"):
        bk({"t": first, ("t",): {"f": 1}})


def test_make_kernel_rejects_unknown_labels():
    with pytest.raises(UnknownLabel):
        bk({"x": {"t": 1}})
    with pytest.raises(UnknownLabel):
        bk({"t": {"x": 1}})
    with pytest.raises(UnknownLabel):
        make_kernel(BO, BO, {("t", "t"): {"t": 1}})
    wide = Alphabet("w", tuple(f"v{i}" for i in range(32)))
    assert make_kernel(obj(wide), BO, {"v31": {"t": 1}}).prob("v31", "t") == 1
    with pytest.raises(UnknownLabel) as err:
        make_kernel(obj(wide), BO, {"v32": {"t": 1}})
    assert str(err.value) == "input label 'v32' not in alphabet 'w'"
    with pytest.raises(UnknownLabel) as err:
        K.dirac(obj(wide), [["v0"]])
    assert str(err.value) == "point label ['v0'] not in alphabet 'w'"
    # A key that is neither a label nor a sequence of labels.
    with pytest.raises(UnknownLabel, match=r"^input 5 is not a label or a sequence of labels$"):
        bk({5: {"t": 1}})
    with pytest.raises(UnknownLabel, match=r"^output None is not a label"):
        bk({"t": {None: 1}})
    with pytest.raises(UnknownLabel, match=r"^output 3 is not a label"):
        K.state(BO, {3: "1/2"})
    with pytest.raises(UnknownLabel, match=r"^output 7 is not a label"):
        bk({"t": {"t": 1}}).prob("t", 7)
    # The label set is not part of an alphabet's identity or text.
    assert wide == Alphabet("w", tuple(f"v{i}" for i in range(32)))
    assert hash(wide) == hash(("w", wide.labels))
    assert repr(wide) == f"Alphabet('w', {list(wide.labels)!r})"


def reference_outcome(value, at, what):
    """make_kernel's reading of one key, written out: a bare label, or
    a sequence of one known label per factor of at."""
    if isinstance(value, str):
        value = (value,)
    if not isinstance(value, (tuple, list)):
        raise UnknownLabel(f"{what} {value!r} is not a label or a sequence of labels")
    out = tuple(value)
    if len(out) != len(at.factors):
        raise UnknownLabel(
            f"{what} {out!r} has {len(out)} labels, object {at!r} has "
            f"{len(at.factors)} factors"
        )
    for label, alpha in zip(out, at.factors):
        if label not in alpha.labels:
            raise UnknownLabel(f"{what} label {label!r} not in alphabet {alpha.name!r}")
    return out


def reference_entry_walk(dom, cod, rows):
    """make_kernel's walk over (input, [(output, p), ...]) rows, entry
    by entry: each key is label-checked and each probability parsed and
    sign-checked where it stands, then each row's mass is summed in
    Fractions.  The kernel it returns holds those Fractions as a plain
    table, so it shares no storage code with make_kernel either."""
    seen, kept = set(), {}
    for x_raw, entries in rows:
        x = reference_outcome(x_raw, dom, "input")
        if x in seen:
            raise SchemaError(f"duplicate input {x!r}")
        seen.add(x)
        acc = {}
        for y_raw, p_raw in entries:
            y = reference_outcome(y_raw, cod, "output")
            p = K.parse_fraction(p_raw)
            if p < 0:
                raise NegativeProbability(
                    f"entry ({x!r} -> {y!r}) has negative probability {p}"
                )
            if p:
                acc[y] = acc[y] + p if y in acc else p
        mass = sum(acc.values(), Fraction(0))
        if mass > 1:
            raise RowMassExceedsOne(f"row at input {x!r} has mass {mass} > 1")
        if acc:
            kept[x] = acc
    return SimpleNamespace(dom=dom, cod=cod, rows=kept)


def reference_make_kernel(dom, cod, table):
    return reference_entry_walk(dom, cod, ((x, row.items()) for x, row in table.items()))


_TABLE_P = ["0", "1/4", " 1/4", "0.25", "1/3", "1/2", "1", 0, 1, Fraction(1, 4)]
_TABLE_P += [Fraction(0), Fraction(2, 3), Fraction(-1, 3), "-1/2", -1, "3/2", 2]
_TABLE_P += [True, None, 0.5, "x", "1/0", "1e-1"]


@st.composite
def kernel_tables(draw):
    """(dom, cod, table) with keys written as tuples, as bare labels,
    with unknown, missing or extra labels, or as 5 or None, and
    probabilities of every kind make_kernel reads or refuses."""
    labels = ("a", "b", "c")

    def an_obj(lo, name):
        sizes = draw(st.lists(st.integers(1, 3), min_size=lo, max_size=2))
        return Obj(tuple(Alphabet(f"{name}{i}", labels[:n]) for i, n in enumerate(sizes)))

    def key(at):
        outcome = [draw(st.sampled_from(a.labels)) for a in at.factors]
        how = draw(
            st.sampled_from(["tuple"] * 6 + ["bare", "unknown", "extra", "short", "int", "none"])
        )
        if how == "bare" and len(outcome) == 1:
            return outcome[0]
        if how in ("int", "none"):  # neither a label nor a sequence of labels
            return 5 if how == "int" else None
        if how == "unknown" and outcome:
            outcome[draw(st.integers(0, len(outcome) - 1))] = "zz"
        elif how == "extra":
            outcome.append("a")
        elif how == "short" and outcome:
            outcome.pop()
        return tuple(outcome)

    dom, cod = an_obj(0, "D"), an_obj(1, "C")
    table = {}
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 4))
        table[key(dom)] = {key(cod): draw(st.sampled_from(_TABLE_P)) for _ in range(n)}
    return dom, cod, table


def _made(build, dom, cod, table):
    """A built kernel with its row and entry order, or the error raised."""
    try:
        k = build(dom, cod, table)
    except Exception as exc:  # compared, not swallowed: see the assert
        return ("raised", type(exc), str(exc))
    rows = [(x, list(row.items())) for x, row in k.rows.items()]
    assert all(type(q) is Fraction for _, row in rows for _, q in row)
    return ("kernel", rows)


@given(kernel_tables())
@example((BO, BO, {"t": {"t": "1/4", ("t",): Fraction(1, 4), "f": 0}}))
@example((BO, BO, {"t": {"t": 1}, ("t",): {"f": "x"}}))
@example((BO, BO, {"t": {"zz": "x"}}))
@example((BO, BO, {"t": {"t": "x", "zz": 1}}))
@example((BO, BO, {"t": {"t": Fraction(-1, 2), "f": "x"}}))
@example((BO, BO, {"t": {"t": "3/4", "f": "1/2"}, "zz": {"t": 1}}))
@example((BO, BO, {5: {"t": 1}}))
@example((BO, BO, {"t": {None: 1}}))
def test_make_kernel_matches_per_entry_reference(case):
    assert _made(make_kernel, *case) == _made(reference_make_kernel, *case)


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(UnknownLabel):
        Alphabet("bad", ("a", "a"))
    with pytest.raises(UnknownLabel):
        Alphabet("bad", ())


def test_compose_requires_matching_types():
    with pytest.raises(TypeMismatch):
        K.compose(K.discard(BO), K.identity(BO))


# -- failure-mass bookkeeping ------------------------------------------------


def test_failure_probability_masses():
    f = bk({"t": {"t": HALF, "f": Fraction(1, 4)}, "f": {"f": 1}})
    fp = K.failure_probability(f)
    assert fp.prob("t", ()) == Fraction(3, 4)
    assert fp.prob("f", ()) == 1


# -- structural maps ---------------------------------------------------------


def test_copy_discard_swap_compare_shapes():
    A = Alphabet("pair", ("x", "y"))
    AB = obj(A, B)
    cp = K.copy(AB)
    assert cp.prob(("x", "t"), ("x", "t", "x", "t")) == 1
    assert K.discard(AB).prob(("x", "t"), ()) == 1
    sw = K.swap(obj(A), BO)
    assert sw.prob(("x", "t"), ("t", "x")) == 1
    cmp_ = K.compare(BO)
    assert cmp_.prob(("t", "t"), "t") == 1
    assert cmp_.mass(("t", "f")) == 0


def test_compare_has_the_diagonal_rows_in_domain_order():
    # compare is built from the inputs where it is defined, the diagonal,
    # and equals the partial function read over its whole domain.
    for x in (UNIT, BO, obj(B, Alphabet("pair", ("x", "y", "z")))):
        n = len(x.factors)
        whole = K.deterministic(
            x.tensor(x), x, lambda o: o[:n] if o[:n] == o[n:] else None
        )
        assert K.compare(x) == whole
        assert list(K.compare(x).rows) == list(whole.rows)


def test_copy_on_tensor_interleaves():
    # copy on a two-factor object duplicates the whole tuple.
    A = Alphabet("pair", ("x", "y"))
    cp = K.copy(obj(A, B))
    for a in A.labels:
        for b in B.labels:
            assert cp.prob((a, b), (a, b, a, b)) == 1


def test_unit_structural_maps_are_identity():
    assert K.copy(UNIT) == K.identity(UNIT)
    assert K.discard(UNIT) == K.identity(UNIT)
    assert K.compare(UNIT) == K.identity(UNIT)


def test_deterministic_is_the_kernel_of_a_partial_function():
    A = Alphabet("pair", ("x", "y"))
    AB = obj(A, B)
    calls = []

    def fn(o):
        calls.append(o)
        return None if o == ("y", "f") else o[1:]

    k = K.deterministic(AB, BO, fn)
    assert calls == list(AB.outcomes())
    assert (k.dom, k.cod) == (AB, BO)
    assert k == make_kernel(
        AB, BO, {o: {o[1:]: 1} for o in AB.outcomes() if o != ("y", "f")}
    )
    assert K.is_deterministic(k) and not K.is_total(k)


@given(objects(), objects())
def test_structural_maps_are_their_functions(a, b):
    def table_kernel(dom, cod, fn):
        return make_kernel(dom, cod, {o: {fn(o): 1} for o in dom.outcomes()})

    n = len(a.factors)
    aa = a.tensor(a)
    assert K.identity(a) == table_kernel(a, a, lambda o: o)
    assert K.copy(a) == table_kernel(a, aa, lambda o: o + o)
    assert K.discard(a) == table_kernel(a, UNIT, lambda o: ())
    assert K.swap(a, b) == table_kernel(
        a.tensor(b), b.tensor(a), lambda o: o[n:] + o[:n]
    )
    assert K.compare(a) == make_kernel(
        aa, a, {o + o: {o: 1} for o in a.outcomes()}
    )
    point = next(a.outcomes())
    assert K.dirac(a, point) == make_kernel(UNIT, a, {(): {point: 1}})
    for k in (K.identity(a), K.copy(a), K.swap(a, b), K.compare(a)):
        assert list(k.rows) == [x for x in k.dom.outcomes() if x in k.rows]


def test_dirac_is_deterministic_total_state():
    d = K.dirac(BO, "t")
    assert d.prob((), "t") == 1
    assert K.is_total(d) and K.is_deterministic(d)
    with pytest.raises(UnknownLabel):
        K.dirac(BO, "x")


def test_row_is_read_only():
    half = K.state(BO, {"t": HALF})
    with pytest.raises(TypeError):
        half.row(())[("f",)] = 9
    with pytest.raises(TypeError):
        del half.row(())[("t",)]
    with pytest.raises(TypeError):
        bk({}).row("t")[("t",)] = 1
    assert half.mass(()) == HALF and half.prob((), "f") == 0
    assert not K.is_total(half)
    assert half == K.state(BO, {"t": HALF})


def test_rows_are_frozen():
    # The rows view, each of its rows and row(x) refuse every write, and
    # the kernel refuses every attribute write; a refused write changes
    # nothing, and copies and pickles are equal kernels.
    half = K.state(BO, {"t": "1/2"})
    with pytest.raises(TypeError):
        half.rows[()] = {("t",): Fraction(1)}
    with pytest.raises(TypeError):
        del half.rows[()]
    with pytest.raises(TypeError):
        half.rows[()][("f",)] = 9
    with pytest.raises(TypeError):
        half.row(())[("f",)] = 9
    for name in ("rows", "dom", "_rows"):
        with pytest.raises(AttributeError):
            setattr(half, name, {})
    assert half.mass(()) == HALF and half.prob((), "f") == 0
    assert not K.is_total(half) and not K.is_quasi_total(half)
    assert half == K.state(BO, {"t": HALF})
    assert half.rows == {(): {("t",): HALF}}
    assert copy.deepcopy(half) == half == pickle.loads(pickle.dumps(half))


def test_a_deferred_product_reads_as_its_rows():
    # tensor keeps its factors for life and builds no rows; every read,
    # write refusal, equality, copy and pickle sees the rows, built from
    # the factors on the first read and kept.
    g = bk({"t": {"t": Fraction(1, 3), "f": Fraction(2, 3)}, "f": {"f": HALF}})
    fs = [K.copy(BO), g, K.state(BO, {"t": "1/4"})]
    stored = reduce(K._times, fs)
    reads = [
        lambda k: k.rows,
        lambda k: k.row(("t", "f")),
        lambda k: k.prob(("f", "f"), ("f", "f", "f", "t")),
        lambda k: k.mass(("t", "t")),
        lambda k: (list(k.rows), [list(r) for r in k.rows.values()]),
        repr,
        lambda k: k == stored,
        lambda k: stored == k,
        lambda k: copy.deepcopy(k) == stored == pickle.loads(pickle.dumps(k)),
        lambda k: K.compose(k, K.discard(k.cod)),
        lambda k: K.relabel(k, lambda x, y: y[:1], BO),
    ]
    for read in reads:
        k = K.tensor(*fs)
        assert k._built is None
        assert read(k) == read(stored)
        assert k._factors == tuple(fs)
        with pytest.raises(AttributeError):
            setattr(k, "_rows", {})
    assert K.tensor(g) is g
    # Under CPython 3.11 a class with __getattr__ has every attribute
    # read take the generic lookup, so no class of pmc.kernel has one.
    classes = [c for c in vars(K).values() if getattr(c, "__module__", "") == K.__name__]
    assert SubKernel in classes and K._Product in classes
    assert not [c for c in classes if isinstance(c, type) and "__getattr__" in vars(c)]
    # A deferred product among tensor's arguments is spliced in.
    nested = K.tensor(K.tensor(fs[0], fs[1]), fs[2])
    assert nested._factors == tuple(fs) and nested == stored


# -- predicates --------------------------------------------------------------


def test_predicates_on_coin():
    coin = K.state(BO, {"t": HALF, "f": HALF})
    assert K.is_total(coin)
    assert K.is_quasi_total(coin)
    assert not K.is_deterministic(coin)


def test_predicates_on_partial_kernels():
    half = K.state(BO, {"t": HALF})
    assert not K.is_total(half)
    assert not K.is_quasi_total(half)
    assert not K.is_deterministic(half)
    empty = SubKernel(UNIT, BO, {})
    assert not K.is_total(empty)
    assert K.is_quasi_total(empty)
    assert K.is_deterministic(empty)


def test_deterministic_partial_function_is_quasi_total():
    f = bk({"t": {"f": 1}})
    assert K.is_deterministic(f)
    assert K.is_quasi_total(f)
    assert not K.is_total(f)


def test_coin_is_not_deterministic_via_copy_equation():
    coin = K.state(BO, {"t": HALF, "f": HALF})
    lhs = K.compose(coin, K.copy(BO))
    rhs = K.compose(K.copy(UNIT), K.tensor(coin, coin))
    assert lhs.prob((), ("t", "f")) == 0
    assert rhs.prob((), ("t", "f")) == Fraction(1, 4)
    assert lhs != rhs


# -- compose against a naive Fraction triple sum -----------------------------


def naive_compose_rows(f, g):
    rows = {}
    for x in f.dom.outcomes():
        row = {}
        for z in g.cod.outcomes():
            total = sum(
                (f.prob(x, y) * g.prob(y, z) for y in f.cod.outcomes()),
                Fraction(0),
            )
            if total:
                row[z] = total
        if row:
            rows[x] = row
    return rows


@st.composite
def kernels_or_functions(draw, dom=None, cod=None):
    """A kernel from kernels(), or one time in three the kernel of a
    function, total or partial, and one time in three a kernel that
    takes each row from one or the other: compose takes a row whose
    denominator is 1 by its own shortcut."""
    how = draw(st.integers(0, 2))
    if how == 0:
        return draw(functions(dom=dom, cod=cod))
    k = draw(kernels(dom=dom, cod=cod))
    if how == 1:
        fn = draw(functions(dom=k.dom, cod=k.cod))
        return make_kernel(k.dom, k.cod, {
            x: draw(st.sampled_from([k, fn])).row(x) for x in k.dom.outcomes()
        })
    return k


@st.composite
def composable_pairs(draw):
    a, b, c = draw(objects()), draw(objects()), draw(objects())
    return (
        draw(kernels_or_functions(dom=a, cod=b)),
        draw(kernels_or_functions(dom=b, cod=c)),
    )


def _carry_f(den0, den1):
    """f : bool -> bool with total rows over den0 and den1, each putting
    1 / den on t and the rest on f."""
    return bk({
        "t": {"t": Fraction(1, den0), "f": Fraction(den0 - 1, den0)},
        "f": {"t": Fraction(1, den1), "f": Fraction(den1 - 1, den1)},
    })


A4 = Alphabet("four", ("p", "q", "r", "s"))
_WIDTHS_F = make_kernel(obj(A4), BO, {
    "p": {"t": Fraction(1, 17), "f": Fraction(2, 17)},
    "q": {"t": Fraction(1, 4099), "f": Fraction(4000, 4099)},
    "r": {"t": Fraction(3, 65537), "f": Fraction(65534, 65537)},
    "s": {"t": Fraction(1, 2**70 + 25), "f": Fraction(2**69, 2**70 + 25)},
})
_WIDTHS_G = make_kernel(BO, obj(A4), {
    "t": {"p": Fraction(1, 3), "q": Fraction(1, 3), "r": Fraction(1, 3)},
    "f": {"p": Fraction(1, 5), "q": Fraction(2, 5), "r": Fraction(2, 5)},
})


def first_seen_outputs(f, g, x):
    """Outputs of (f ; g) at x in the order the row is summed: through
    f's row in order, then each g row in order, first sight only."""
    order = []
    for y in f.rows[x]:
        for z in g.rows.get(y, {}):
            if z not in order:
                order.append(z)
    return order


@given(composable_pairs())
@example(
    # A whole-number entry, mixed denominators, and g's row at "f" absent.
    (
        bk({"t": {"t": Fraction(1, 3), "f": Fraction(1, 2)}, "f": {"t": 1}}),
        bk({"t": {"t": Fraction(2, 5), "f": Fraction(1, 7)}}),
    )
)
@example(
    # g's rows list their outputs in opposite orders, and f's rows reach
    # them in opposite orders, so each output row starts with another.
    (
        bk({"t": {"f": Fraction(1, 3), "t": HALF}, "f": {"t": HALF}}),
        bk(
            {
                "t": {"t": Fraction(2, 5), "f": Fraction(1, 7)},
                "f": {"f": Fraction(1, 4), "t": Fraction(3, 4)},
            }
        ),
    )
)
@example(
    # One output column carries each total row's whole mass: its sum is
    # the row's denominator, 255 and then 256, one byte and two.
    (_carry_f(255, 256), bk({"t": {"t": 1}, "f": {"t": 1}}))
)
@example(
    # The same at 65,536, the first denominator of three bytes.
    (_carry_f(65536, 65535), bk({"t": {"t": 1}, "f": {"t": 1}}))
)
@example(
    # Rows of f of one, two, three and ten slot bytes in one call, the
    # last over a denominator of 71 bits, all reaching g's two rows.
    (_WIDTHS_F, _WIDTHS_G)
)
@example(
    # A partial function f whose row at "t" reaches "f", where g has no
    # row: the result has no row at "t".
    (
        K.deterministic(BO, BO, lambda x: ("t",) if x == ("f",) else ("f",)),
        bk({"t": {"f": Fraction(1, 3), "t": HALF}}),
    )
)
@example(
    # f and g both partial functions: g drops f's output at "q", and the
    # result is a partial function again.
    (
        K.deterministic(
            obj(A4), obj(B, B),
            {("p",): ("t", "t"), ("q",): ("t", "f"), ("r",): ("f", "f")}.get,
        ),
        K.compare(BO),
    )
)
@example(
    # g has no rows, so it drops every entry of f: no row is left.
    (_WIDTHS_F, make_kernel(BO, obj(A4), {}))
)
@example(
    # f mixes rows of denominator 1, one reaching a row of g and one
    # not, with general rows before and after them.
    (
        make_kernel(obj(A4), BO, {
            "p": {"t": Fraction(1, 3), "f": HALF},
            "q": {"f": 1},
            "r": {"t": 1},
            "s": {"f": Fraction(1, 5)},
        }),
        bk({"f": {"f": Fraction(1, 4), "t": Fraction(3, 4)}}),
    )
)
def test_compose_matches_naive_sum(pair):
    f, g = pair
    h = K.compose(f, g)
    assert h.rows == naive_compose_rows(f, g)
    assert list(h.rows) == [x for x in f.rows if x in h.rows]
    for x, row in h.rows.items():
        assert list(row) == first_seen_outputs(f, g, x)
        for q in row.values():
            assert type(q) is Fraction and q > 0
            assert gcd(q.numerator, q.denominator) == 1


@st.composite
def whiskerings(draw):
    """(f, g, left, right) with f's codomain left (x) g.dom (x) right."""
    left, right = draw(objects()), draw(objects())
    g = draw(kernels_or_functions())
    f = draw(kernels_or_functions(cod=left.tensor(g.dom).tensor(right)))
    return f, g, left, right


A3 = Alphabet("three", ("x", "y", "z"))


@given(whiskerings())
@example(
    # A partial g whose row at "z" f never reaches, between two wires.
    (
        make_kernel(
            UNIT, obj(B, A3, B),
            {(): {("t", "x", "f"): Fraction(1, 3), ("f", "y", "f"): HALF}},
        ),
        make_kernel(obj(A3), BO, {"x": {"t": HALF}, "z": {"f": 1}}),
        BO,
        BO,
    )
)
@example(
    # A partial function g between two wires: it sends "x" and "y" to
    # one output, where f's two entries are summed, and has no row at
    # "z", where f's entry is dropped.
    (
        make_kernel(
            UNIT, obj(B, A3, B),
            {(): {
                ("t", "x", "f"): Fraction(1, 4),
                ("f", "z", "t"): HALF,
                ("t", "y", "f"): Fraction(1, 4),
            }},
        ),
        K.deterministic(obj(A3), BO, {("x",): ("t",), ("y",): ("t",)}.get),
        BO,
        BO,
    )
)
@example(
    # g with the unit as domain: a state inserted at each offset.
    (
        bk({"t": {"t": Fraction(1, 3), "f": HALF}, "f": {"f": 1}}),
        make_kernel(UNIT, obj(A3), {(): {"x": Fraction(1, 4), "z": HALF}}),
        BO,
        UNIT,
    )
)
@example(
    # f mixes rows of denominator 1 with a general row, g between two
    # wires: each one output takes g's row in context, or none at "z".
    (
        make_kernel(obj(A4), obj(B, A3, B), {
            "p": {("f", "y", "t"): 1},
            "q": {("t", "x", "f"): Fraction(1, 3), ("f", "z", "f"): HALF},
            "r": {("t", "z", "f"): 1},
        }),
        make_kernel(obj(A3), BO, {
            "y": {"f": Fraction(1, 6), "t": Fraction(2, 3)}, "x": {"t": HALF},
        }),
        BO,
        BO,
    )
)
def test_whiskered_compose_is_compose_through_the_whiskered_kernel(case):
    f, g, left, right = case
    whiskered = K.tensor(K.tensor(K.identity(left), g), K.identity(right))
    assert K.compose(f, g, at=len(left.factors)) == K.compose(f, whiskered)
    if not (left.factors or right.factors):
        assert K.compose(f, g, at=0) == K.compose(f, g)


@given(whiskerings(), st.data())
def test_whiskered_compose_at_a_wrong_offset_raises_the_materialised_error(
    case, data
):
    f, g, left, right = case
    n, m = len(f.cod.factors), len(g.dom.factors)
    at = data.draw(st.integers(0, n - m))
    lo, hi = Obj(f.cod.factors[:at]), Obj(f.cod.factors[at + m :])
    whiskered = K.tensor(K.tensor(K.identity(lo), g), K.identity(hi))
    try:
        expected = K.compose(f, whiskered)
    except TypeMismatch as exc:
        with pytest.raises(TypeMismatch) as err:
            K.compose(f, g, at=at)
        assert str(err.value) == str(exc)
    else:
        assert K.compose(f, g, at=at) == expected


def test_compose_without_offset_needs_the_whole_codomain():
    # Plain compose does not whisker: a codomain longer than g's domain
    # is a type error, as it is for the materialised kernel.
    f = K.copy(BO)
    with pytest.raises(TypeMismatch) as err:
        K.compose(f, K.identity(BO))
    assert str(err.value) == (
        "cannot compose: first codomain bool (x) bool != second domain bool"
    )
    assert K.compose(f, K.identity(BO), at=0) == f


@pytest.mark.parametrize("at", [-1, 3, 7])
def test_compose_at_an_offset_outside_the_codomain_raises(at):
    # A unit-domain g fits the slicing check at any offset; the offset
    # itself must place g.dom inside f's codomain.
    f = K.copy(BO)
    g = make_kernel(UNIT, BO, {(): {"t": 1}})
    with pytest.raises(TypeMismatch) as err:
        K.compose(f, g, at=at)
    assert str(err.value) == (
        f"cannot compose: offset {at} does not place domain I inside "
        "first codomain bool (x) bool"
    )
    assert K.compose(f, g, at=2).cod == Obj(BO.factors * 3)


def _slot_bytes(f, g, x):
    """The bytes compose gives each column of row x of f ; g: those of
    the row's denominator before reduction, f's row denominator times
    the lcm of the denominators of the rows of g it reaches."""
    f_den = lcm(*(q.denominator for q in f.rows[x].values()))
    g_den = lcm(*(q.denominator for y in f.rows[x] for q in g.rows.get(y, {}).values()))
    return ((f_den * g_den).bit_length() + 7) // 8


def test_compose_column_sums_on_byte_boundaries():
    # compose sums each group of g's rows as integers packed into slots
    # as wide as the row's unreduced denominator.  Each case puts column
    # sums at or next to a byte boundary of that denominator.
    # test_compose_matches_naive_sum's examples are these kernels.
    carry = bk({"t": {"t": 1}, "f": {"t": 1}})
    for den0, den1, widths in ((255, 256, (1, 2)), (65536, 65535, (3, 2))):
        f = _carry_f(den0, den1)
        assert [_slot_bytes(f, carry, x) for x in f.rows] == list(widths)
        h = K.compose(f, carry)
        assert h.rows == naive_compose_rows(f, carry) == {
            ("t",): {("t",): 1}, ("f",): {("t",): 1}
        }
    assert [_slot_bytes(_WIDTHS_F, _WIDTHS_G, x) for x in _WIDTHS_F.rows] == [
        1, 2, 3, 10
    ]
    # A whiskered g met in two contexts, ("t",) and ("f",) after g's
    # input, within one row: each context sums g's two rows packed, at
    # the widths of the rows over 256, 65,537 and 2**64 + 13.
    g = make_kernel(BO, obj(A3), {
        "t": {"x": Fraction(1, 3), "y": Fraction(2, 3)},
        "f": {"x": Fraction(3, 4), "y": Fraction(1, 4)},
    })
    wire = obj(B, B)
    for den in (256, 65537, 2**64 + 13):
        f = make_kernel(BO, wire, {
            "t": {
                ("t", "t"): Fraction(1, den), ("f", "t"): Fraction(den // 2, den),
                ("t", "f"): Fraction(1, den), ("f", "f"): Fraction(den // 2 - 2, den),
            },
            "f": {("f", "f"): Fraction(den - 1, den)},
        })
        whiskered = K.tensor(g, K.identity(BO))
        h = K.compose(f, g, at=0)
        assert h.rows == naive_compose_rows(f, whiskered)
        assert h == K.compose(f, whiskered)


def test_compose_prime_denominator_chain_matches_integer_product():
    n = 32
    # Primes above 7 * n, so no weight sum reaches its row's denominator.
    primes = [p for p in range(7 * n + 1, 1000) if all(p % d for d in range(2, p))]
    a = Alphabet("n", tuple(f"v{i}" for i in range(n)))
    on = obj(a)

    def dense(first_prime):
        # Row i puts weight (i + j) % 7 + 1 on output j over its own prime.
        weights, dens, table = [], [], {}
        for i in range(n):
            den = primes[first_prime + i]
            w = [(i + j) % 7 + 1 for j in range(n)]
            weights.append(w)
            dens.append(den)
            table[a.labels[i]] = {
                a.labels[j]: Fraction(w[j], den) for j in range(n)
            }
        return weights, dens, make_kernel(on, on, table)

    fw, fd, f = dense(0)
    gw, gd, g = dense(n)
    common = 1
    for den in gd:
        common *= den
    g_scaled = [[w * (common // den) for w in row] for row, den in zip(gw, gd)]
    h = K.compose(f, g)
    for i in range(n):
        for k in range(n):
            num = sum(fw[i][j] * g_scaled[j][k] for j in range(n))
            assert h.prob(a.labels[i], a.labels[k]) == Fraction(
                num, fd[i] * common
            )


# -- tensor against the naive product ---------------------------------------


def naive_tensor_rows(r1s, r2s):
    """The rows of the product of two row tables, multiplying every pair."""
    return {
        x1 + x2: {
            y1 + y2: p * q for y1, p in r1.items() for y2, q in r2.items()
        }
        for x1, r1 in r1s.items()
        for x2, r2 in r2s.items()
    }


@st.composite
def tensor_factors(draw):
    """1-4 kernels; past two, each with at most one factor each side,
    so that the product stays small."""
    n = draw(st.integers(1, 4))
    if n <= 2:
        return [draw(kernels()) for _ in range(n)]
    one = objects(max_factors=1)
    return [draw(kernels(dom=draw(one), cod=draw(one))) for _ in range(n)]


@given(tensor_factors())
@example([
    # f's entries mix 1 and other values; g has none equal to 1.
    bk({"t": {"f": 1}, "f": {"t": HALF, "f": Fraction(1, 3)}}),
    bk({"t": {"t": Fraction(1, 3), "f": Fraction(2, 3)}, "f": {"f": HALF}}),
])
@example([K.copy(BO), bk({"f": {"t": Fraction(1, 5), "f": Fraction(3, 4)}})])
@example([
    # No entry is 1, so every product multiplies.
    bk({"t": {"t": Fraction(1, 3), "f": HALF}, "f": {"f": Fraction(1, 4)}}),
    make_kernel(UNIT, BO, {(): {"t": Fraction(3, 7), "f": Fraction(2, 7)}}),
    bk({"t": {"t": Fraction(2, 3)},
        "f": {"t": Fraction(1, 5), "f": Fraction(3, 5)}}),
])
@example([
    # Rows of denominator 1 on the left only: each meets general rows.
    bk({"t": {"f": 1}, "f": {"t": Fraction(1, 6), "f": Fraction(2, 3)}}),
    bk({"t": {"t": Fraction(3, 4)}, "f": {"t": Fraction(2, 9), "f": Fraction(1, 9)}}),
])
@example([
    # The same on the right only.
    make_kernel(UNIT, BO, {(): {"t": Fraction(2, 5), "f": Fraction(1, 10)}}),
    bk({"t": {"t": HALF, "f": Fraction(1, 4)}, "f": {"t": 1}}),
])
@example([
    # On both sides, beside general rows: every pairing of the two kinds.
    bk({"t": {"t": 1}, "f": {"t": Fraction(1, 3), "f": Fraction(1, 3)}}),
    bk({"t": {"t": Fraction(5, 6)}, "f": {"f": 1}}),
])
def test_tensor_matches_naive_product(fs):
    h = K.tensor(*fs)
    expected = reduce(naive_tensor_rows, (f.rows for f in fs))
    assert h.rows == expected
    assert list(h.rows) == list(expected)
    for x, row in h.rows.items():
        assert list(row) == list(expected[x])
        assert all(type(q) is Fraction for q in row.values())


def test_tensor_multiplies_no_fraction(monkeypatch):
    # Rows are multiplied as integers: g's entries, none of them 1, meet
    # rows of structural maps on their left and on their right, and no
    # Fraction is multiplied, whether the product is built by tensor or
    # by evaluate.
    y = obj(Alphabet("three", ("x", "y", "z")))
    g = make_kernel(BO, y, {
        "t": {"x": Fraction(1, 4), "z": HALF}, "f": {"y": Fraction(2, 3)},
    })
    ks = [K.copy(BO), K.swap(BO, y), g, K.identity(y)]
    term = Tensor(Copy(BO), Swap(BO, y), Gen("g", g), Id(y))
    naive = reduce(naive_tensor_rows, (k.rows for k in ks))

    def refuse(self, other):
        raise AssertionError(f"multiplied {self} by {other}")

    monkeypatch.setattr(Fraction, "__mul__", refuse)
    monkeypatch.setattr(Fraction, "__rmul__", refuse)
    for h in (K.tensor(*ks), evaluate(term)):
        assert h.rows == naive
        assert list(h.rows) == list(naive)


# -- row primitives ----------------------------------------------------------


@st.composite
def relabellings(draw, reads_x: bool = True):
    """A kernel f, a codomain, and a table from (x, y) to outcomes of
    that codomain, drawn per y alone when reads_x is false."""
    f = draw(kernels())
    cod = draw(objects())
    targets = list(cod.outcomes())
    pick = st.sampled_from(targets)
    by_y = {y: draw(pick) for y in f.cod.outcomes()}
    table = {
        (x, y): draw(pick) if reads_x else by_y[y]
        for x in f.dom.outcomes()
        for y in f.cod.outcomes()
    }
    return f, table, cod


@given(relabellings())
def test_relabel_sums_entries_landing_on_one_output(case):
    f, table, cod = case
    g = K.relabel(f, lambda x, y: table[x, y], cod)
    assert (g.dom, g.cod) == (f.dom, cod)
    for x in f.dom.outcomes():
        for z in cod.outcomes():
            landing = [p for y, p in f.row(x).items() if table[x, y] == z]
            assert g.prob(x, z) == sum(landing, Fraction(0))
    assert set(g.rows) == set(f.rows)
    assert all(g.rows.values())


@given(relabellings(reads_x=False))
def test_relabel_by_output_is_composing_with_a_deterministic_map(case):
    f, table, cod = case
    fn = {y: z for (_, y), z in table.items()}
    det = make_kernel(f.cod, cod, {y: {z: 1} for y, z in fn.items()})
    assert K.relabel(f, lambda x, y: fn[y], cod) == K.compose(f, det)


def test_relabel_by_a_partial_map_drops_undefined_entries():
    # Row t keeps two entries that merge on one output and loses a third;
    # row f loses its only entry, so no row is stored for it.
    three = obj(Alphabet("three", ("x", "y", "z")))
    f = make_kernel(BO, three, {
        "t": {"x": Fraction(1, 3), "y": Fraction(1, 6), "z": Fraction(1, 4)},
        "f": {"z": HALF},
    })
    g = K.relabel(f, lambda x, y: None if y == ("z",) else ("t",), BO)
    assert g == make_kernel(BO, BO, {"t": {"t": HALF}})


@given(kernels(), st.data())
def test_bend_moves_the_first_factors_to_the_input(f, data):
    split = data.draw(st.integers(0, len(f.cod.factors)))
    g = K.bend(f, split)
    kept, rest = Obj(f.cod.factors[:split]), Obj(f.cod.factors[split:])
    assert (g.dom, g.cod) == (kept.tensor(f.dom), rest)
    for x in f.dom.outcomes():
        for y in f.cod.outcomes():
            assert g.prob(y[:split] + x, y[split:]) == f.prob(x, y)
    assert all(g.rows.values())


def test_bend_rejects_bad_split():
    for split in (-1, 2):
        with pytest.raises(BadSplit):
            K.bend(bk({}), split)


def uniform_state(at):
    return K.state(at, dict.fromkeys(at.outcomes(), Fraction(1, at.size)))


@given(kernels())
def test_state_at_and_fill_read_rows(f):
    uniform = uniform_state(f.cod)
    filled = K.fill(f, uniform)
    for x in f.dom.outcomes():
        assert K.state_at(f, x) == K.state(f.cod, f.row(x))
        assert filled.row(x) == (f.row(x) or uniform.row(()))


@given(kernels())
def test_row_primitives_share_no_row_with_their_input(f):
    n = K.normalise(f)
    uniform = uniform_state(f.cod)
    at = next(iter(f.rows), ())
    cases = [
        (K.normalise(f), [f]),
        (K.normalise(n), [n]),
        (K.relabel(f, lambda x, y: y, f.cod), [f]),
        (K.graph(f), [f]),
        (K.bend(f, 0), [f]),
        (K.bend(f, len(f.cod.factors)), [f]),
        (K.state_at(f, at), [f]),
        (K.fill(f, uniform), [f, uniform]),
    ]
    # compose's shortcut for rows of denominator 1, then its relabel
    # for a partial function g: an identity before f, then after it;
    # then f after a kernel mixing such rows with general ones.
    mixed = make_kernel(f.dom, f.dom, {
        x: {x: 1} if n % 2 else {x: HALF} for n, x in enumerate(f.dom.outcomes())
    })
    for i, j in ((K.identity(f.dom), f), (f, K.identity(f.cod)), (mixed, f)):
        cases += [(K.compose(i, j), [i, j]), (K.compose(i, j, at=0), [i, j])]
    for result, inputs in cases:
        held = {id(row) for k in inputs for row in k.rows.values()}
        assert not any(id(row) in held for row in result.rows.values())
        # The stored rows too: no kernel holds another's row dict.
        held = {id(e) for k in inputs for _, e in k._rows.values()}
        assert not any(id(e) in held for _, e in result._rows.values())


@st.composite
def built_kernels(draw):
    """A kernel from one of the operations that build rows."""
    how = draw(st.sampled_from([
        "make_kernel", "compose", "whiskered", "tensor", "normalise", "relabel", "bend",
    ]))
    if how == "make_kernel":
        # Unreduced strings: make_kernel stores the rows reduced.
        f, m = draw(kernels()), draw(st.integers(1, 3))
        return make_kernel(f.dom, f.cod, {
            x: {y: f"{q.numerator * m}/{q.denominator * m}" for y, q in r.items()}
            for x, r in f.rows.items()
        })
    if how == "compose":
        return K.compose(*draw(composable_pairs()))
    if how == "whiskered":
        f, g, left, _ = draw(whiskerings())
        return K.compose(f, g, at=len(left.factors))
    if how == "tensor":
        return K.tensor(*draw(tensor_factors()))
    if how == "relabel":
        f, table, cod = draw(relabellings())
        return K.relabel(f, lambda x, y: table[x, y], cod)
    f = draw(kernels())
    if how == "normalise":
        return K.normalise(f)
    return K.bend(f, draw(st.integers(0, len(f.cod.factors))))


@given(built_kernels())
@example(K.tensor(
    K.state(BO, {"t": HALF, "f": HALF}), K.state(BO, {"t": Fraction(2, 3)})
))
@example(K.relabel(
    bk({"t": {"t": Fraction(1, 4), "f": Fraction(1, 4)}}), lambda x, y: x, BO
))
def test_rows_view_is_the_stored_rows_as_reduced_fractions(k):
    # The examples store rows whose integer products or sums share a
    # factor with the row denominator: 2/6 and 2/4 are stored reduced.
    for x in k.dom.outcomes():
        row = k.row(x)
        assert row == k.rows.get(x, {})
        assert k.mass(x) == sum(row.values(), Fraction(0))
        for y in k.cod.outcomes():
            assert k.prob(x, y) == row.get(y, 0)
    for row in k.rows.values():
        assert row
        for q in row.values():
            assert type(q) is Fraction and q > 0
            assert gcd(q.numerator, q.denominator) == 1
    assert make_kernel(k.dom, k.cod, k.rows) == k


# -- algebraic laws (hypothesis) ---------------------------------------------


@given(st.sampled_from(sorted(REGISTRY)), st.integers(0, 2**32 - 1))
def test_registry_law_holds_on_a_drawn_seed(name, seed):
    # The registry is the one statement of each law, the category,
    # comonoid, Frobenius and swap-naturality equations among them.
    report = check_law(name, 1, seed)
    assert report.failures == 0, report.counterexample


@given(kernels(), kernels())
def test_tensor_respects_unit_and_associativity(f, g):
    unit_id = K.identity(UNIT)
    assert K.tensor(f, unit_id) == f
    assert K.tensor(unit_id, f) == f
    h = K.identity(BO)
    assert K.tensor(K.tensor(f, g), h) == K.tensor(f, K.tensor(g, h))
    assert K.tensor(f, g, h) == K.tensor(K.tensor(f, g), h)
    assert K.tensor(f) == f


@given(kernels())
def test_row_masses_bounded(f):
    for x in f.dom.outcomes():
        assert 0 <= f.mass(x) <= 1
