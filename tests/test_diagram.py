"""Term typing, evaluation, observation encodings, and normal forms."""

from __future__ import annotations

import time
from fractions import Fraction
from functools import reduce

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from pmc import kernel as K
from pmc.diagram import (
    BOOL_OBJ,
    Compare,
    Compose,
    Copy,
    Discard,
    Gen,
    Id,
    NormalForm,
    Observe,
    Swap,
    Tensor,
    YES,
    _lift,
    eval_normal_form,
    evaluate,
    infer_type,
    normal_form,
    observe_kernel,
)
from pmc.errors import IllTyped, NonTotalGenerator, TypeMismatch, UnknownLabel
from pmc.kernel import Alphabet, Obj, UNIT, make_kernel, obj, state
from pmc.laws import random_cproc_term

from conftest import kernels

B = Alphabet("bool", ("t", "f"))
BO = obj(B)
COIN = state(BO, {"t": Fraction(1, 2), "f": Fraction(1, 2)})


# -- typing ------------------------------------------------------------------


def test_infer_type_structural():
    assert infer_type(Id(BO)) == (BO, BO)
    assert infer_type(Copy(BO)) == (BO, BO.tensor(BO))
    assert infer_type(Discard(BO)) == (BO, UNIT)
    assert infer_type(Compare(BO)) == (BO.tensor(BO), BO)
    assert infer_type(Observe(BO, ("t",))) == (BO, UNIT)
    sw = Swap(BO, BO.tensor(BO))
    assert infer_type(sw)[0].factors == BO.tensor(BO.tensor(BO)).factors


def test_infer_type_compose_and_tensor():
    term = Compose(Gen("coin", COIN), Copy(BO))
    assert infer_type(term) == (UNIT, BO.tensor(BO))
    twice = Tensor(Id(BO), Discard(BO))
    assert infer_type(twice) == (BO.tensor(BO), BO)
    chain = Compose(Gen("coin", COIN), Copy(BO), Tensor(Id(BO), Discard(BO)))
    assert chain.terms[2] == twice and infer_type(chain) == (UNIT, BO)
    for node in (Compose, Tensor):
        with pytest.raises(IllTyped):
            node()


def test_infer_type_reports_subterm_path():
    with pytest.raises(IllTyped) as err:
        infer_type(Compose(Id(BO), Discard(BO.tensor(BO))))
    assert str(err.value) == "at t.terms[1]: cannot compose bool into bool (x) bool"
    nested = Tensor(Id(BO), Compose(Id(BO), Copy(BO), Id(BO), Discard(BO)))
    with pytest.raises(IllTyped) as err:
        infer_type(nested)
    assert str(err.value) == (
        "at t.terms[1].terms[2]: cannot compose bool (x) bool into bool"
    )


def test_observe_validates_point():
    with pytest.raises(UnknownLabel):
        Observe(BO, ("x",))
    with pytest.raises(UnknownLabel):
        Observe(BO, ("t", "t"))


# -- evaluation --------------------------------------------------------------


def test_evaluate_structural_matches_kernel_module():
    # The unit object, one factor, and two factors of unequal sizes; a
    # swap of x past BO has unequal sides unless x is BO.
    for x in (UNIT, BO, obj(B, Alphabet("three", ("x", "y", "z")))):
        assert evaluate(Id(x)) == K.identity(x)
        assert evaluate(Copy(x)) == K.copy(x)
        assert evaluate(Discard(x)) == K.discard(x)
        assert evaluate(Compare(x)) == K.compare(x)
        assert evaluate(Swap(x, BO)) == K.swap(x, BO)
        assert evaluate(Swap(BO, x)) == K.swap(BO, x)
        for point in x.outcomes():
            table = {point: {(): 1}}
            assert evaluate(Observe(x, point)) == make_kernel(x, UNIT, table)
            assert observe_kernel(x, point) == make_kernel(x, UNIT, table)


def test_evaluate_observe_restricts_to_point():
    k = evaluate(Observe(BO, ("t",)))
    assert k.prob("t", ()) == 1
    assert k.mass("f") == 0


def test_observe_over_a_wide_object_is_built_as_its_one_row():
    # Observe is built from the one input where it is defined, so 2**40
    # domain outcomes cost nothing; Compare likewise from its diagonal.
    wide = Obj((B,) * 40)
    point = ("t", "f") * 20
    start = time.perf_counter()
    k = evaluate(Observe(wide, point))
    assert time.perf_counter() - start < 1
    assert k == make_kernel(wide, UNIT, {point: {(): 1}})
    assert observe_kernel(wide, point) == k
    x = obj(B, Alphabet("three", ("x", "y", "z")))
    assert evaluate(Compare(x)) == K.compare(x)


def test_coin_observe_scalar():
    term = Compose(Gen("coin", COIN), Observe(BO, ("t",)))
    assert evaluate(term).prob((), ()) == Fraction(1, 2)


# -- evaluate against a plain fold -------------------------------------------


def _fold(term):
    """The reference semantics, sharing no helper with evaluate: each
    structural leaf is its kernel constructor's kernel, an observation
    the one-entry table at its point, each Compose a left fold of
    K.compose, each Tensor of K.tensor."""
    match term:
        case Gen(_, k):
            return k
        case Id(x):
            return K.identity(x)
        case Copy(x):
            return K.copy(x)
        case Discard(x):
            return K.discard(x)
        case Swap(x, y):
            return K.swap(x, y)
        case Compare(x):
            return K.compare(x)
        case Observe(x, point):
            return make_kernel(x, UNIT, {point: {(): 1}})
        case Compose(terms):
            return reduce(K.compose, map(_fold, terms))
        case Tensor(terms):
            return reduce(K.tensor, map(_fold, terms))


def _result(interpret, term):
    """interpret(term), or the message of the TypeMismatch it raises."""
    try:
        return interpret(term)
    except TypeMismatch as exc:
        return str(exc)


# Two alphabets, so halves of a wire often match and Compare applies.
_POOL = (B, Alphabet("three", ("x", "y", "z")))
_WIDTH = 4  # no wire carries more factors, so every kernel stays small


def _wide(draw, n: int) -> Obj:
    return Obj(tuple(draw(st.sampled_from(_POOL)) for _ in range(n)))


def _wire(draw, x: Obj) -> Obj:
    """x, or now and then another object, which makes the term ill-typed."""
    if draw(st.integers(0, 11)):
        return x
    return _wide(draw, draw(st.integers(0, 2)))


@st.composite
def leaves(draw, dom: Obj, room: int):
    """A leaf out of dom, of any kind, whose codomain has at most `room`
    factors; generators are partial in general.  Returns (term, cod)."""
    n = len(dom.factors)
    half = Obj(dom.factors[: n // 2])
    kinds = ["gen", "gen", "discard", "observe"]
    if n <= room:
        kinds.append("id")
    if 2 * n <= room:
        kinds.append("copy")
    if 2 <= n <= room:
        kinds.append("swap")
    if n % 2 == 0 and half.tensor(half) == dom:
        kinds += ["compare", "compare"]
    kind = draw(st.sampled_from(kinds))
    if kind == "gen":
        cod = _wide(draw, draw(st.integers(0, min(room, 2))))
        return Gen("g", draw(kernels(dom=dom, cod=cod))), cod
    if kind == "discard":
        return Discard(_wire(draw, dom)), UNIT
    if kind == "observe":
        return Observe(dom, draw(st.sampled_from(list(dom.outcomes())))), UNIT
    if kind == "id":
        return Id(_wire(draw, dom)), dom
    if kind == "copy":
        return Copy(_wire(draw, dom)), dom.tensor(dom)
    if kind == "compare":
        return Compare(_wire(draw, half)), half
    k = draw(st.integers(1, n - 1))
    left, right = Obj(dom.factors[:k]), Obj(dom.factors[k:])
    return Swap(_wire(draw, left), right), right.tensor(left)


@st.composite
def terms(draw, dom: Obj, room: int = _WIDTH, depth: int = 2):
    """A term out of dom of every node kind: leaves, Compose chains,
    Tensors, and Tensors of Ids around one term at a drawn offset.  In a
    chain, evaluate folds each term of a Tensor step in turn into the
    kernel before it.  Now and then a wire's object is wrong (see
    _wire).  Returns (term, cod)."""
    n = len(dom.factors)
    kinds = ["leaf"] if depth == 0 else ["leaf", "compose", "compose", "tensor"]
    if depth and n <= room:
        kinds += ["whisker", "whisker"]
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        return draw(leaves(dom, room))
    if kind == "compose":
        parts, cod = [], dom
        for _ in range(draw(st.integers(2, 4))):
            part, cod = draw(terms(cod, room, depth - 1))
            parts.append(part)
        return Compose(*parts), cod
    if kind == "tensor":
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=1, max_size=2)))
        bounds = [0, *cuts, n]
        parts, cod = [], UNIT
        for lo, hi in zip(bounds, bounds[1:]):
            piece = Obj(dom.factors[lo:hi])
            part, c = draw(terms(piece, room - len(cod.factors), depth - 1))
            parts.append(part)
            cod = cod.tensor(c)
        return Tensor(*parts), cod
    k = draw(st.integers(0, n))
    m = draw(st.integers(0, n - k))
    left, right = Obj(dom.factors[:k]), Obj(dom.factors[k + m :])
    inner = Obj(dom.factors[k : k + m])
    g, c = draw(terms(inner, room - n + m, depth - 1))
    # Each side is one Id, one Id per factor, or nothing when it is empty.
    ids = []
    for side in (left, right):
        if side.factors and draw(st.booleans()):
            ids.append([Id(_wire(draw, Obj((a,)))) for a in side.factors])
        else:
            ids.append([Id(_wire(draw, side))] if side.factors else [])
    return Tensor(*ids[0], g, *ids[1]), left.tensor(c).tensor(right)


@st.composite
def chains(draw):
    """A Compose chain out of a drawn object, its first term a generator
    so that what the chain folds through is a general kernel."""
    dom = _wide(draw, draw(st.integers(0, 2)))
    cod = _wide(draw, draw(st.integers(0, _WIDTH)))
    parts = [Gen("f", draw(kernels(dom=dom, cod=cod)))]
    for _ in range(draw(st.integers(1, 4))):
        part, cod = draw(terms(cod))
        parts.append(part)
    return Compose(*parts)


@settings(max_examples=300)
@given(chains())
def test_evaluate_matches_a_plain_fold(term):
    assert _result(evaluate, term) == _result(_fold, term)


def test_evaluate_folds_whiskered_chains_at_every_offset():
    # A partial state on three bool wires meets a partial generator, an
    # observation, a comparator and a nested chain at every offset, with
    # one Id per factor on the left and one Id for the rest on the right.
    # The swap of the first wire past the rest has unequal sides, so a
    # fold that swaps by the wrong side's width gives a different kernel.
    wire = obj(B, B, B)
    f = Gen("f", state(wire, {("t", "t", "f"): Fraction(1, 3),
                              ("f", "t", "t"): Fraction(1, 2)}))
    partial = Gen("p", make_kernel(BO, BO, {"t": {"f": Fraction(1, 2)}}))
    chain = Compose(Copy(BO), Swap(BO, BO), Compare(BO))
    inner = (partial, Observe(BO, ("f",)), Compare(BO), chain)
    for g in inner:
        width = len(infer_type(g)[0].factors)
        for k in range(len(wire.factors) - width + 1):
            left = [Id(BO)] * k
            right = [Id(Obj(wire.factors[k + width :]))]
            whiskered = Tensor(*left, g, *right)
            cod = infer_type(whiskered)[1]
            first, rest = Obj(cod.factors[:1]), Obj(cod.factors[1:])
            term = Compose(f, whiskered, Swap(first, rest), Copy(cod), Swap(cod, cod))
            assert evaluate(term) == _fold(term)


_TENSOR_STEP = "a chain step was built as a tensor product"


def _refused(message):
    """A stand-in for a kernel operation that evaluate must not call."""

    def call(*args, **kwargs):
        raise AssertionError(message)

    return call


def test_evaluate_folds_wiring_steps_without_compose(monkeypatch):
    # Bare and whiskered comparators, observations and discards, and
    # Tensors of wiring only, nested ones too, move the outputs of the
    # kernel before them; none is composed with it, and no step's kernel
    # is a tensor product.
    f = Gen("f", state(obj(B, B, B, B), {("t", "t", "t", "t"): Fraction(1, 3),
                                         ("f", "f", "t", "t"): Fraction(1, 2),
                                         ("t", "f", "t", "t"): Fraction(1, 7)}))
    t = ("t",)
    term = Compose(
        f, Tensor(Compare(BO), Compare(BO)), Tensor(Id(BO), Id(BO)),
        Tensor(Id(BO), Tensor(Copy(BO))), Tensor(Id(BO), Compare(BO)), Compare(BO),
        Copy(BO), Tensor(Observe(BO, t), Id(BO)), Copy(BO),
        Tensor(Id(BO), Discard(BO)), Id(BO), Observe(BO, t), Discard(UNIT),
    )
    want = _fold(term)
    assert want.prob((), ()) == Fraction(1, 3)

    monkeypatch.setattr(K, "compose", _refused("a wiring step was composed"))
    monkeypatch.setattr(K, "tensor", _refused(_TENSOR_STEP))
    assert evaluate(term) == want


def test_evaluate_folds_a_tensor_of_generators_without_tensor(monkeypatch):
    # By interchange, f ; (g (x) h) is f ; (g (x) id) ; (id (x) h): two
    # whiskered composes, with no kernel of g (x) h.
    three = Alphabet("three", ("x", "y", "z"))
    f = Gen("f", make_kernel(BO, obj(B, three), {
        "t": {("t", "x"): Fraction(1, 4), ("f", "z"): Fraction(1, 2)},
        "f": {("f", "y"): Fraction(2, 3), ("t", "y"): Fraction(1, 3)},
    }))
    partial = Gen("p", make_kernel(BO, obj(three), {"t": {"y": Fraction(1, 2)}}))
    g = Gen("g", make_kernel(obj(three), BO, {
        "x": {"t": Fraction(1, 3), "f": Fraction(2, 3)},
        "y": {"f": Fraction(1)},
        "z": {"t": Fraction(1, 5)},
    }))
    term = Compose(f, Tensor(partial, g))
    want = _fold(term)
    assert want.rows and not K.is_total(want)

    monkeypatch.setattr(K, "tensor", _refused(_TENSOR_STEP))
    assert evaluate(term) == want


def test_evaluate_makes_one_tensor_product_per_tensor(monkeypatch):
    # f1 (x) ... (x) f5 has no bracketing: one n-ary product, with no
    # partial product of a prefix built first, nested Tensors opened.
    three = Alphabet("three", ("x", "y", "z"))
    g = Gen("g", make_kernel(BO, obj(three), {
        "t": {"x": Fraction(1, 4), "z": Fraction(1, 2)},
        "f": {"y": Fraction(2, 3), "x": Fraction(1, 3)},
    }))
    flat = Tensor(Copy(BO), Swap(BO, obj(three)), g, Id(BO), Compare(BO))
    nested = Tensor(Copy(BO), Tensor(Swap(BO, obj(three)), Tensor(g, Id(BO))),
                    Compare(BO))
    wants = [_fold(flat), _fold(nested)]
    tensor, calls = K.tensor, []

    def counted(*ks):
        calls.append(len(ks))
        return tensor(*ks)

    monkeypatch.setattr(K, "tensor", counted)
    for term, want in zip((flat, nested), wants):
        calls.clear()
        assert evaluate(term) == want
        assert calls == [5]


@pytest.mark.parametrize(
    "term",
    [
        Compose(Copy(BO), Id(BO)),
        Compose(Gen("coin", COIN), Copy(BO.tensor(BO))),
        Compose(Gen("coin", COIN), Swap(BO, BO)),
        Compose(Copy(BO), Tensor(Id(UNIT), Gen("coin", COIN), Id(BO))),
        Compose(Copy(BO), Tensor(Discard(BO), Id(BO.tensor(BO)))),
        Compose(Copy(BO), Tensor(Id(BO), Compose(Copy(BO), Copy(BO)))),
    ],
)
def test_ill_typed_compose_raises_the_plain_fold_error(term):
    # Without infer_type, evaluate's shortcuts raise compose's error for
    # the kernel a plain fold would have built, byte for byte.
    with pytest.raises(TypeMismatch) as want:
        _fold(term)
    with pytest.raises(TypeMismatch) as got:
        evaluate(term)
    assert str(got.value) == str(want.value)
    assert str(want.value).startswith("cannot compose: first codomain")


# -- normal form -------------------------------------------------------------


def test_normal_form_of_total_generator_is_trivial():
    nf = normal_form(Gen("coin", COIN))
    assert nf.g == COIN
    assert nf.h.prob((), YES) == 1


def test_normal_form_of_observe():
    nf = normal_form(Observe(BO, ("t",)))
    assert nf.g == K.discard(BO)
    assert nf.h.prob("t", YES) == 1
    assert nf.h.prob("f", YES) == 0
    assert K.is_total(nf.h)


def test_normal_form_coin_observe():
    term = Compose(Gen("coin", COIN), Observe(BO, ("t",)))
    nf = normal_form(term)
    assert nf.g == K.identity(UNIT)
    assert nf.h.prob((), YES) == Fraction(1, 2)
    assert eval_normal_form(nf) == evaluate(term)


def test_normal_form_copy_observe_keeps_conditional():
    # Copy the coin, observe one branch: the surviving branch is dirac(t)
    # and the success probability is 1/2.
    term = Compose(
        Gen("coin", COIN),
        Compose(Copy(BO), Tensor(Id(BO), Observe(BO, ("t",)))),
    )
    nf = normal_form(term)
    assert nf.g == K.dirac(BO, "t")
    assert nf.h.prob((), YES) == Fraction(1, 2)
    assert eval_normal_form(nf) == evaluate(term)


def test_normal_form_rejects_partial_generator():
    partial = state(BO, {"t": Fraction(1, 2)})
    with pytest.raises(NonTotalGenerator):
        normal_form(Gen("partial", partial))
    # nested, after a total term
    with pytest.raises(NonTotalGenerator) as err:
        normal_form(Tensor(Gen("coin", COIN), Gen("partial", partial)))
    assert str(err.value) == "generator 'partial' is not total"


def test_normal_form_rejects_comparator():
    with pytest.raises(NonTotalGenerator):
        normal_form(Compare(BO))
    # nested, as the second step of a composition
    with pytest.raises(NonTotalGenerator) as err:
        normal_form(Compose(Copy(BO), Compare(BO)))
    assert str(err.value) == "comparator is not a constrained process"


def test_normal_form_type_checks_first():
    with pytest.raises(IllTyped):
        normal_form(Compose(Discard(BO), Id(BO)))


def test_normal_form_parts_must_be_total():
    half = state(BO, {"t": Fraction(1, 2)})
    const_yes = K.make_kernel(K.UNIT, BOOL_OBJ, {(): {"t": 1}})
    with pytest.raises(NonTotalGenerator):
        NormalForm(half, const_yes)  # g leaks mass
    with pytest.raises(NonTotalGenerator):
        NormalForm(K.dirac(BO, "t"), half)  # h leaks mass
    with pytest.raises(IllTyped):
        NormalForm(K.dirac(BO, "t"), observe_kernel(BOOL_OBJ, YES))


def test_two_stage_observation_composes():
    # Observing t on each of two independent coins multiplies success
    # probabilities.
    term = Compose(
        Tensor(Gen("c1", COIN), Gen("c2", COIN)),
        Tensor(Observe(BO, ("t",)), Observe(BO, ("t",))),
    )
    nf = normal_form(term)
    assert nf.h.prob((), YES) == Fraction(1, 4)
    assert eval_normal_form(nf) == evaluate(term)


def test_evaluate_allows_partial_generators():
    # Partial generators are evaluable even though they have no normal form.
    partial = state(BO, {"t": Fraction(1, 2)})
    term = Compose(Gen("partial", partial), Discard(BO))
    assert evaluate(term).prob((), ()) == Fraction(1, 2)


def test_normal_form_g_is_uniform_where_success_is_impossible():
    # There h scales g's row away, so any total row would denote the same
    # kernel; g holds the uniform state, whatever the term's shape.
    terms = rows = 0
    for seed in range(400):
        nf = normal_form(random_cproc_term(seed))
        cod = nf.g.cod
        uniform = dict.fromkeys(cod.outcomes(), Fraction(1, cod.size))
        zero = [x for x in nf.h.dom.outcomes() if nf.h.prob(x, YES) == 0]
        for x in zero:
            assert nf.g.row(x) == uniform, (seed, x)
        terms, rows = terms + bool(zero), rows + len(zero)
    assert (terms, rows) == (73, 188)  # the seeds do reach such inputs


def test_normal_form_is_computed_in_the_total_category(monkeypatch):
    # One lift into cod (x) bool, total, then one normalisation of its
    # success part: none per composition step.
    normalised = []
    normalise = K.normalise
    monkeypatch.setattr(K, "normalise", lambda f: normalised.append(f) or normalise(f))
    for seed in range(100):
        term = random_cproc_term(seed)
        dom, cod = infer_type(term)
        lift = _lift(term)
        assert (lift.dom, lift.cod) == (dom, cod.tensor(BOOL_OBJ))
        assert K.is_total(lift), seed
        normalised.clear()
        normal_form(term)
        assert len(normalised) == 1, seed
