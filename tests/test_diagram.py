"""Term typing, evaluation, observation encodings, and normal forms."""

from __future__ import annotations

from fractions import Fraction

import pytest

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
from pmc.errors import IllTyped, NonTotalGenerator, UnknownLabel
from pmc.kernel import Alphabet, UNIT, make_kernel, obj, state

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
