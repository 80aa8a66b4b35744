"""Kernel construction, structural maps, predicates, and category laws."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
import hypothesis.strategies as st
from hypothesis import example, given

from pmc import kernel as K
from pmc.errors import (
    BadSplit,
    NegativeProbability,
    RowMassExceedsOne,
    TypeMismatch,
    UnknownLabel,
)
from pmc.kernel import Alphabet, Obj, SubKernel, UNIT, make_kernel, obj
from pmc.laws import REGISTRY, check_law

from conftest import kernels, objects

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
    # The label set is not part of an alphabet's identity or text.
    assert wide == Alphabet("w", tuple(f"v{i}" for i in range(32)))
    assert hash(wide) == hash(("w", wide.labels))
    assert repr(wide) == f"Alphabet('w', {list(wide.labels)!r})"


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
def composable_pairs(draw):
    a, b, c = draw(objects()), draw(objects()), draw(objects())
    return draw(kernels(dom=a, cod=b)), draw(kernels(dom=b, cod=c))


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
    g = draw(kernels())
    f = draw(kernels(cod=left.tensor(g.dom).tensor(right)))
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
    # g with the unit as domain: a state inserted at each offset.
    (
        bk({"t": {"t": Fraction(1, 3), "f": HALF}, "f": {"f": 1}}),
        make_kernel(UNIT, obj(A3), {(): {"x": Fraction(1, 4), "z": HALF}}),
        BO,
        UNIT,
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


def naive_tensor_rows(f, g):
    return {
        x1 + x2: {
            y1 + y2: p * q for y1, p in r1.items() for y2, q in r2.items()
        }
        for x1, r1 in f.rows.items()
        for x2, r2 in g.rows.items()
    }


@given(kernels(), kernels())
@example(
    # f's entries mix 1 and other values; g has none equal to 1.
    bk({"t": {"f": 1}, "f": {"t": HALF, "f": Fraction(1, 3)}}),
    bk({"t": {"t": Fraction(1, 3), "f": Fraction(2, 3)}, "f": {"f": HALF}}),
)
@example(K.copy(BO), bk({"f": {"t": Fraction(1, 5), "f": Fraction(3, 4)}}))
def test_tensor_matches_naive_product(f, g):
    h = K.tensor(f, g)
    expected = naive_tensor_rows(f, g)
    assert h.rows == expected
    assert list(h.rows) == list(expected)
    for x, row in h.rows.items():
        assert list(row) == list(expected[x])
        assert all(type(q) is Fraction for q in row.values())


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
    for result, inputs in cases:
        held = {id(row) for k in inputs for row in k.rows.values()}
        assert not any(id(row) in held for row in result.rows.values())


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


@given(kernels())
def test_row_masses_bounded(f):
    for x in f.dom.outcomes():
        assert 0 <= f.mass(x) <= 1
