"""Conditioning operations against independent brute-force oracles.

The oracles below recompute every published number with plain loops
over outcome tuples and fractions.Fraction only, so the library, which
builds each operation from compose, relabel, bend and normalise, is
checked against arithmetic it does not share.
"""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from pmc import conditioning as C
from pmc import kernel as K
from pmc.errors import (
    BadSplit,
    ImpossibleEvidence,
    NotTotal,
    PmcError,
    TypeMismatch,
)
from pmc.kernel import Alphabet, Obj, SubKernel, UNIT, make_kernel, obj, state

from conftest import kernels, states

B = Alphabet("bool", ("t", "f"))
BO = obj(B)
X = Alphabet("x", ("x1", "x2"))
Y = Alphabet("y", ("y", "n"))
XO, YO = obj(X), obj(Y)

JOINT = state(
    BO.tensor(BO),
    {
        ("t", "t"): Fraction(1, 2),
        ("f", "t"): Fraction(1, 4),
        ("f", "f"): Fraction(1, 8),
    },
)

SIGMA = state(XO, {"x1": Fraction(1, 2), "x2": Fraction(1, 2)})
CHANNEL = make_kernel(
    XO,
    YO,
    {"x1": {"y": 1}, "x2": {"y": Fraction(1, 2), "n": Fraction(1, 2)}},
)


def oracle_marginal(f, split):
    out = {}
    for x, row in f.rows.items():
        acc = {}
        for y, p in row.items():
            acc[y[:split]] = acc.get(y[:split], Fraction(0)) + p
        out[x] = acc
    return out


def oracle_inversion(prior_row, channel):
    push = {}
    for xo, px in prior_row.items():
        for yo, q in channel.rows.get(xo, {}).items():
            push[yo] = push.get(yo, Fraction(0)) + px * q
    inv = {}
    for xo, px in prior_row.items():
        for yo, q in channel.rows.get(xo, {}).items():
            inv.setdefault(yo, {})[xo] = px * q / push[yo]
    return push, inv


def oracle_conditional(f, split):
    if not 0 <= split <= len(f.cod.factors):
        raise BadSplit(f"split {split}")
    rows = {}
    for x, row in f.rows.items():
        masses, groups = {}, {}
        for y, p in row.items():
            a, b = y[:split], y[split:]
            masses[a] = masses.get(a, Fraction(0)) + p
            groups.setdefault(a, {})[b] = p
        for a, m in masses.items():
            rows[a + x] = {b: p / m for b, p in groups[a].items()}
    dom = Obj(f.cod.factors[:split] + f.dom.factors)
    return SubKernel(dom, Obj(f.cod.factors[split:]), rows)


def oracle_cond_compose(m, c):
    rows = {}
    for x, mrow in m.rows.items():
        acc = {}
        for a, p in mrow.items():
            for b, q in c.rows.get(a + x, {}).items():
                acc[a + b] = p * q
        if acc:
            rows[x] = acc
    return SubKernel(m.dom, m.cod.tensor(c.cod), rows)


def oracle_normalise(f):
    rows = {}
    for x, row in f.rows.items():
        m = sum(row.values(), Fraction(0))
        rows[x] = {y: p / m for y, p in row.items()}
    return SubKernel(f.dom, f.cod, rows)


def oracle_pearl_update(prior, channel, predicate):
    weights = {}
    for x, px in prior.rows.get((), {}).items():
        w = Fraction(0)
        for y, q in channel.rows.get(x, {}).items():
            w += q * predicate.rows.get(y, {}).get((), Fraction(0))
        if w:
            weights[x] = px * w
    total = sum(weights.values(), Fraction(0))
    if total == 0:
        raise ImpossibleEvidence("zero weight")
    return SubKernel(
        UNIT, prior.cod, {(): {x: w / total for x, w in weights.items()}}
    )


def oracle_jeffrey_update(prior, channel, evidence):
    if not K.is_total(evidence):
        raise NotTotal("evidence state must be total")
    _, inv = oracle_inversion(prior.rows.get((), {}), channel)
    acc = {}
    for y, t in evidence.rows.get((), {}).items():
        if y not in inv:
            raise ImpossibleEvidence(f"{y!r}")
        for x, p in inv[y].items():
            acc[x] = acc.get(x, Fraction(0)) + t * p
    return SubKernel(UNIT, prior.cod, {(): acc})


def result_or_error(fn, *args):
    """fn's kernel, or the class of the PmcError it raised."""
    try:
        return fn(*args)
    except PmcError as exc:
        return type(exc)


@given(kernels(cod=obj(B, X)), st.integers(-1, 3))
def test_conditional_matches_oracle(f, split):
    expected = result_or_error(oracle_conditional, f, split)
    assert result_or_error(C.conditional, f, split) == expected


@given(st.data())
def test_cond_compose_matches_oracle(data):
    m = data.draw(kernels())
    c = data.draw(kernels(dom=m.cod.tensor(m.dom)))
    assert C.cond_compose(m, c) == oracle_cond_compose(m, c)


@given(kernels())
def test_normalise_matches_oracle(f):
    assert C.normalise(f) == oracle_normalise(f)


@given(st.data())
def test_update_rules_match_oracles(data):
    prior = data.draw(states())
    channel = data.draw(kernels(dom=prior.cod))
    predicate = data.draw(kernels(dom=channel.cod, cod=UNIT))
    # Normalised, so only an empty evidence state is not total.
    evidence = oracle_normalise(data.draw(states(cod=channel.cod)))
    for rule, oracle, last in (
        (C.pearl_update, oracle_pearl_update, predicate),
        (C.jeffrey_update, oracle_jeffrey_update, evidence),
    ):
        expected = result_or_error(oracle, prior, channel, last)
        assert result_or_error(rule, prior, channel, last) == expected


# -- marginal ----------------------------------------------------------------


def test_marginal_sums_dropped_factors():
    m = C.marginal(JOINT, 1)
    assert m.prob((), "t") == Fraction(1, 2)
    assert m.prob((), "f") == Fraction(3, 8)
    assert oracle_marginal(JOINT, 1)[()] == m.rows[()]


def test_marginal_extremes():
    assert C.marginal(JOINT, 2) == JOINT
    mass = C.marginal(JOINT, 0)
    assert mass.prob((), ()) == Fraction(7, 8)
    assert mass == K.failure_probability(JOINT)


def test_marginal_rejects_bad_split():
    with pytest.raises(BadSplit):
        C.marginal(JOINT, 3)
    with pytest.raises(BadSplit):
        C.marginal(JOINT, -1)


# -- conditional -------------------------------------------------------------


def test_conditional_divides_by_marginal():
    c = C.conditional(JOINT, 1)
    assert c.dom == BO
    assert c.cod == BO
    assert c.prob("t", "t") == 1
    assert c.prob("f", "t") == Fraction(2, 3)
    assert c.prob("f", "f") == Fraction(1, 3)


def test_conditional_zero_marginal_rows_fail():
    f = state(BO.tensor(BO), {("t", "t"): Fraction(1, 2)})
    c = C.conditional(f, 1)
    assert c.mass("f") == 0
    assert K.is_quasi_total(c)


def test_conditional_on_unit_split_is_normalisation():
    c = C.conditional(JOINT, 0)
    assert c == C.normalise(JOINT)


def test_cond_compose_example():
    coin = state(BO, {"t": Fraction(1, 2), "f": Fraction(1, 2)})
    # The conditional projects its conditioning wire back out.
    project = make_kernel(BO, BO, {"t": {"t": 1}, "f": {"f": 1}})
    joint = C.cond_compose(coin, project)
    assert joint.prob((), ("t", "t")) == Fraction(1, 2)
    assert joint.prob((), ("f", "f")) == Fraction(1, 2)
    assert joint.prob((), ("t", "f")) == 0


def test_cond_compose_type_check():
    coin = state(BO, {"t": Fraction(1, 2)})
    with pytest.raises(TypeMismatch):
        C.cond_compose(coin, K.identity(obj(X)))


# -- normalisation -----------------------------------------------------------


def test_normalise_divides_rows_by_mass():
    half = state(BO, {"t": Fraction(1, 4), "f": Fraction(1, 4)})
    n = C.normalise(half)
    assert n.prob((), "t") == Fraction(1, 2)
    assert n.prob((), "f") == Fraction(1, 2)


def test_normalise_keeps_all_fail_rows():
    f = make_kernel(BO, BO, {"t": {"t": Fraction(1, 3)}})
    n = C.normalise(f)
    assert n.prob("t", "t") == 1
    assert n.mass("f") == 0


# -- Bayesian inversion ------------------------------------------------------


def test_bayes_invert_worked_example():
    inv = C.bayes_invert(CHANNEL, SIGMA)
    assert inv.prob("y", "x1") == Fraction(2, 3)
    assert inv.prob("y", "x2") == Fraction(1, 3)
    assert inv.prob("n", "x2") == 1
    assert inv.prob("n", "x1") == 0
    push, oracle = oracle_inversion(SIGMA.rows[()], CHANNEL)
    assert push[("y",)] == Fraction(3, 4)
    assert {y: r for y, r in inv.rows.items()} == oracle


def test_bayes_invert_outside_pushforward_fails():
    prior = state(XO, {"x1": 1})
    inv = C.bayes_invert(CHANNEL, prior)
    assert inv.prob("y", "x1") == 1
    assert inv.mass("n") == 0


def test_bayes_invert_type_check():
    with pytest.raises(TypeMismatch):
        C.bayes_invert(CHANNEL, state(YO, {"y": 1}))


# -- update rules ------------------------------------------------------------


def test_pearl_update_soft_predicate():
    predicate = make_kernel(YO, UNIT, {"y": {(): 1}, "n": {(): Fraction(1, 2)}})
    post = C.pearl_update(SIGMA, CHANNEL, predicate)
    # weights: x1 -> 1, x2 -> 3/4; posterior 1/2 : 3/8 renormalised.
    assert post.prob((), "x1") == Fraction(4, 7)
    assert post.prob((), "x2") == Fraction(3, 7)
    assert K.is_total(post)


def test_pearl_update_impossible_evidence():
    zero = make_kernel(YO, UNIT, {})
    with pytest.raises(ImpossibleEvidence):
        C.pearl_update(SIGMA, CHANNEL, zero)


def test_jeffrey_update_with_pushforward_returns_prior():
    tau = K.compose(SIGMA, CHANNEL)
    assert C.jeffrey_update(SIGMA, CHANNEL, tau) == SIGMA


def test_jeffrey_update_worked_example():
    tau = state(YO, {"y": Fraction(1, 2), "n": Fraction(1, 2)})
    post = C.jeffrey_update(SIGMA, CHANNEL, tau)
    # 1/2 * (2/3, 1/3) + 1/2 * (0, 1) componentwise.
    assert post.prob((), "x1") == Fraction(1, 3)
    assert post.prob((), "x2") == Fraction(2, 3)


def test_jeffrey_update_requires_total_evidence():
    with pytest.raises(NotTotal):
        C.jeffrey_update(SIGMA, CHANNEL, state(YO, {"y": Fraction(1, 2)}))


def test_jeffrey_update_impossible_evidence():
    prior = state(XO, {"x1": 1})
    evidence = state(YO, {"n": 1})
    with pytest.raises(ImpossibleEvidence):
        C.jeffrey_update(prior, CHANNEL, evidence)
