"""Term typing, evaluation, observation encodings, and normal forms."""

from __future__ import annotations

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
    eval_normal_form,
    evaluate,
    infer_type,
    normal_form,
    observe_kernel,
)
from pmc.errors import IllTyped, NonTotalGenerator, TypeMismatch, UnknownLabel
from pmc.kernel import Alphabet, Obj, UNIT, make_kernel, obj, state

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
    assert evaluate(Id(BO)) == K.identity(BO)
    assert evaluate(Copy(BO)) == K.copy(BO)
    assert evaluate(Discard(BO)) == K.discard(BO)
    assert evaluate(Compare(BO)) == K.compare(BO)
    assert evaluate(Swap(BO, BO)) == K.swap(BO, BO)


def test_evaluate_observe_restricts_to_point():
    k = evaluate(Observe(BO, ("t",)))
    assert k.prob("t", ()) == 1
    assert k.mass("f") == 0


def test_coin_observe_scalar():
    term = Compose(Gen("coin", COIN), Observe(BO, ("t",)))
    assert evaluate(term).prob((), ()) == Fraction(1, 2)


# -- evaluate against a plain fold -------------------------------------------


def _fold(term):
    """The reference semantics: each leaf is its kernel constructor's
    kernel, each Compose a left fold of K.compose, each Tensor of K.tensor."""
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
            return observe_kernel(x, point)
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
    Tensors, and Tensors of Ids around one term at a drawn offset, which
    evaluate folds into the chain before them.  Now and then a wire's
    object is wrong (see _wire).  Returns (term, cod)."""
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
            term = Compose(f, whiskered, Copy(cod), Swap(cod, cod))
            assert evaluate(term) == _fold(term)


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


def test_normal_form_rejects_comparator():
    with pytest.raises(NonTotalGenerator):
        normal_form(Compare(BO))


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
