"""Marginals, conditionals, normalisation, and Bayesian inversion.

Each operation is a composite of the kernel operations, as in the
paper's synthetic definitions, with graph(f) = copy ; (f (x) id):

    marginal(f, k)          f relabelled onto its first k factors
    conditional(f, k)       normalise(bend(f, k))
    cond_compose(m, c)      graph(m) ; c, with c re-emitting its A input
    bayes_invert(c, p)      conditional(p ; graph(c), |Y|)
    pearl_update(p, c, q)   normalise(p ; graph(c ; q))
    jeffrey_update(p, c, e) e ; bayes_invert(c, p)

All operations are exact.  Conditioning on an outcome of probability
zero never invents numbers: the affected row is simply all-fail, except
for the two update rules, which raise ImpossibleEvidence when the whole
posterior would be undefined.
"""

from __future__ import annotations

from . import kernel as K
from .errors import ImpossibleEvidence, NotTotal, TypeMismatch
from .kernel import SubKernel, UNIT, normalise


def marginal(f: SubKernel, split: int) -> SubKernel:
    """Project the codomain onto its first `split` factors by summation.

    Equals f ; (id (x) discard) on the dropped factors; split 0 gives the
    success-mass kernel, split len(cod) gives f itself.
    """
    kept, _ = K.split_cod(f, split)
    return K.relabel(f, lambda x, y: y[:split], kept)


def conditional(f: SubKernel, split: int) -> SubKernel:
    """The canonical conditional of f at the given codomain split.

    For f : X -> A (x) B (A the first `split` factors) this returns
    c : A (x) X -> B with c(b | a, x) = f(a, b | x) / marginal(a | x).
    Inputs whose marginal is zero get an all-fail row, which makes the
    conditional quasi-total.
    """
    return normalise(K.bend(f, split))


def cond_compose(m: SubKernel, c: SubKernel) -> SubKernel:
    """Recombine a marginal m : X -> A with a conditional c : A (x) X -> B
    into the joint X -> A (x) B with value m(a | x) * c(b | a, x)."""
    if c.dom.factors != m.cod.factors + m.dom.factors:
        raise TypeMismatch(
            f"conditional domain {c.dom!r} is not {m.cod!r} (x) {m.dom!r}"
        )
    n = len(m.cod.factors)
    keep_a = K.relabel(c, lambda ax, b: ax[:n] + b, m.cod.tensor(c.cod))
    return K.compose(K.graph(m), keep_a)


def bayes_invert(channel: SubKernel, prior: SubKernel) -> SubKernel:
    """Bayesian inversion of channel : X -> Y with respect to a prior
    state on X: the kernel Y -> X with

        inv(x | y) = channel(y | x) * prior(x) / pushforward(y),

    where pushforward = prior ; channel.  Outputs y outside the support
    of the pushforward get an all-fail row.
    """
    if prior.dom != UNIT or prior.cod != channel.dom:
        raise TypeMismatch(
            f"prior must be a state on {channel.dom!r}, got "
            f"{prior.dom!r} -> {prior.cod!r}"
        )
    joint = K.compose(prior, K.graph(channel))
    return conditional(joint, len(channel.cod.factors))


def pearl_update(
    prior: SubKernel, channel: SubKernel, predicate: SubKernel
) -> SubKernel:
    """Condition the prior on a soft predicate over the channel output.

    predicate : Y -> I assigns each outcome a success probability; the
    posterior is prior(x) * sum_y channel(y | x) predicate(y), renormalised.
    Raises ImpossibleEvidence when the total weight is zero.
    """
    if prior.dom != UNIT or prior.cod != channel.dom:
        raise TypeMismatch("prior must be a state on the channel domain")
    if predicate.dom != channel.cod or predicate.cod != UNIT:
        raise TypeMismatch("predicate must map the channel codomain to scalars")
    weights = K.graph(K.compose(channel, predicate))
    posterior = normalise(K.compose(prior, weights))
    if posterior.mass(()) == 0:
        raise ImpossibleEvidence(
            "predicate has zero probability under prior and channel"
        )
    return posterior


def jeffrey_update(
    prior: SubKernel, channel: SubKernel, evidence: SubKernel
) -> SubKernel:
    """Replace the pushforward with a target distribution on outputs.

    evidence : I -> Y must be total; the posterior is
    sum_y evidence(y) * inv(x | y) with inv the Bayesian inversion.
    Raises ImpossibleEvidence if evidence charges an output with zero
    pushforward probability (its inversion row is all-fail).
    """
    if evidence.dom != UNIT or evidence.cod != channel.cod:
        raise TypeMismatch("evidence must be a state on the channel codomain")
    if not K.is_total(evidence):
        raise NotTotal("evidence state must be total")
    inv = bayes_invert(channel, prior)
    for y in evidence.row(()):
        if not inv.row(y):
            raise ImpossibleEvidence(
                f"evidence outcome {y!r} has zero pushforward probability"
            )
    return K.compose(evidence, inv)
