"""Evidential decision problems solved by exact conditioning.

A problem consists of an environment producing a hidden condition
together with the agent's observation, an agent policy from
observations to actions, and a consequence map from condition and
action to a utility-labelled outcome.  Environment and agent are total;
the consequence may fail, and its failure rows act as constraints on
the joint model.  The solver builds the joint I -> U (x) A as a
diagram, evaluates and normalises it once, and bends that single joint
into a kernel A -> U: its row at an action is the action's utility
state, which is what observing the action with an observation node
yields.  Exact expected utilities of those states rank the actions.

The built-in problems (CORPUS) are built the same way: from states,
channels joined to the state they read (cond_compose, graph), and the
kernels of partial functions (deterministic) for each payoff table and
for an agent that follows its disposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from . import kernel as K
from .conditioning import cond_compose, normalise
from .diagram import Compose, Copy, Gen, Id, Tensor, Term, evaluate
from .errors import (
    BadParameter,
    NoFeasibleAction,
    NotTotal,
    TypeMismatch,
    UndefinedUtility,
    UnknownAction,
    UnknownLabel,
)
from .kernel import (
    Alphabet,
    Obj,
    Outcome,
    SubKernel,
    UNIT,
    make_kernel,
    obj,
    state,
)


@dataclass(frozen=True)
class DecisionProblem:
    """A finite evidential decision problem.

    environment : I -> C (x) O   (hidden condition and observation)
    agent       : O -> A         (policy; A is the action alphabet)
    consequence : C (x) A -> U   (utility-labelled outcomes; may fail)
    utilities   : exact value of each label of U, each read by
                  parse_fraction and stored as a Fraction
    """

    name: str
    actions: Alphabet
    environment: SubKernel
    agent: SubKernel
    consequence: SubKernel
    utilities: dict[str, Fraction]

    def __post_init__(self) -> None:
        # Read first, so a bad utility is the first fault a reader meets.
        utilities = {u: K.parse_fraction(v) for u, v in self.utilities.items()}
        object.__setattr__(self, "utilities", utilities)
        if self.environment.dom != UNIT:
            raise TypeMismatch("environment must be a state")
        if self.agent.cod != self.action_obj:
            raise TypeMismatch("agent codomain must be the action alphabet")
        obs = self.agent.dom.factors
        c_factors = self.environment.cod.factors
        if c_factors[len(c_factors) - len(obs):] != obs:
            raise TypeMismatch(
                "environment codomain must end with the observation object"
            )
        if self.consequence.dom != self.condition_obj.tensor(self.action_obj):
            raise TypeMismatch(
                "consequence domain must be condition (x) actions"
            )
        if len(self.consequence.cod.factors) != 1:
            raise TypeMismatch("consequence codomain must be a single alphabet")
        # Environment and agent live in the total fragment; the consequence
        # may be substochastic, its failures acting as model constraints.
        if not K.is_total(self.environment):
            raise NotTotal("environment must be total")
        if not K.is_total(self.agent):
            raise NotTotal("agent must be total")
        u_labels = set(self.consequence.cod.factors[0].labels)
        given = set(self.utilities)
        if given != u_labels:
            raise UnknownLabel(
                f"utilities must cover exactly the outcome labels; "
                f"missing {sorted(u_labels - given)}, "
                f"extra {sorted(given - u_labels)}"
            )

    @property
    def condition_obj(self) -> Obj:
        n_obs = len(self.agent.dom.factors)
        c = self.environment.cod.factors
        return Obj(c[: len(c) - n_obs])

    @property
    def action_obj(self) -> Obj:
        return obj(self.actions)

    @property
    def utility_obj(self) -> Obj:
        return self.consequence.cod


def model_term(problem: DecisionProblem) -> Term:
    """The joint model I -> U (x) A as a diagram:

    environment ; (id_C (x) (agent ; copy_A)) ; (consequence (x) id_A).

    evaluate folds both whiskered terms into the composition, so neither
    id_C (x) (agent ; copy_A) nor the |C (x) A| x |A|-row consequence
    (x) id_A is ever built as a kernel.
    """
    c = problem.condition_obj
    a = problem.action_obj
    return Compose(
        Gen("environment", problem.environment),
        Tensor(Id(c), Compose(Gen("agent", problem.agent), Copy(a))),
        Tensor(Gen("consequence", problem.consequence), Id(a)),
    )


def conditioned_model(problem: DecisionProblem) -> SubKernel:
    """The joint over utility outcomes and actions, conditioned on the
    model succeeding: the normalisation of the evaluated model term."""
    return normalise(evaluate(model_term(problem)))


def _states_by_action(problem: DecisionProblem, joint: SubKernel) -> SubKernel:
    """The conditioned joint I -> U (x) A as the kernel A -> U whose row
    at an action is that action's utility state: the action factor is
    moved to the front and bent round into the input."""
    a_first = problem.action_obj.tensor(problem.utility_obj)
    return K.bend(K.relabel(joint, lambda x, y: y[-1:] + y[:-1], a_first), 1)


def action_state(problem: DecisionProblem, action: str) -> SubKernel:
    """The utility state obtained by observing that the action was taken.

    It is the row at `action` of the conditioned model bent into
    A -> U, equal to composing that model with id_U (x) observe(action).
    The mass of the returned state is the probability of the action in
    the success-conditioned model — the action probabilities partition
    one — and its normalisation is the conditional distribution over
    utility outcomes given that action.  At mass zero the state has no
    row.
    """
    if action not in problem.actions.labels:
        raise UnknownAction(
            f"{action!r} is not an action of problem {problem.name!r}"
        )
    by_action = _states_by_action(problem, conditioned_model(problem))
    return K.state_at(by_action, (action,))


def expected_utility(
    utility_state: SubKernel, utilities: Mapping[str, Fraction]
) -> Fraction:
    """Exact expected utility of a subdistribution over utility labels,
    conditioned on success, with utilities as DecisionProblem stores
    them (Fractions); raises UndefinedUtility at mass zero."""
    _, eu = _mass_and_value(utility_state.row(()), utilities)
    if eu is None:
        raise UndefinedUtility("state has zero mass")
    return eu


def _mass_and_value(
    row: Mapping[Outcome, Fraction], utilities: Mapping[str, Fraction]
) -> tuple[Fraction, Optional[Fraction]]:
    """A utility row's mass, and its expected utility conditioned on
    success, or None at mass zero."""
    mass = sum(row.values(), Fraction(0))
    if mass == 0:
        return mass, None
    total = sum((p * utilities[y[0]] for y, p in row.items()), Fraction(0))
    return mass, total / mass


@dataclass(frozen=True)
class ActionValue:
    action: str
    mass: Fraction
    expected_utility: Optional[Fraction]


@dataclass(frozen=True)
class Prescription:
    """Per-action conditional values plus the prescribed maximisers."""

    problem: str
    table: tuple[ActionValue, ...]
    prescribed: tuple[str, ...]
    chosen: str


def solve(problem: DecisionProblem) -> Prescription:
    """Evaluate every action and prescribe the expected-utility maximisers.

    The model is evaluated, normalised and bent into A -> U once, and
    each action's state is that kernel's row, as in action_state.
    Actions of probability zero have undefined value and are excluded;
    if every action is excluded, raises NoFeasibleAction.  The chosen
    action is the first maximiser in declared order.
    """
    by_action = _states_by_action(problem, conditioned_model(problem))
    table = []
    best: Optional[Fraction] = None
    for a in problem.actions.labels:
        mass, eu = _mass_and_value(by_action.row((a,)), problem.utilities)
        table.append(ActionValue(a, mass, eu))
        if eu is not None and (best is None or eu > best):
            best = eu
    if best is None:
        raise NoFeasibleAction(
            f"no action of {problem.name!r} has positive probability"
        )
    prescribed = tuple(v.action for v in table if v.expected_utility == best)
    return Prescription(problem.name, tuple(table), prescribed, prescribed[0])


# ---------------------------------------------------------------------------
# Built-in decision problems
# ---------------------------------------------------------------------------


def _check_unit_interval(**params) -> dict[str, Fraction]:
    out = {}
    for name, value in params.items():
        q = K.parse_fraction(value)
        if not 0 <= q <= 1:
            raise BadParameter(f"{name} = {q} outside [0, 1]")
        out[name] = q
    return out


def _uniform(at: Obj) -> SubKernel:
    """The uniform state on at."""
    p = Fraction(1, at.size)
    return state(at, {x: p for x in at.outcomes()})


def _face_values(payout: Alphabet) -> dict[str, Fraction]:
    """Utilities that give each payout label the number it names."""
    return {u: K.parse_fraction(u) for u in payout.labels}


def _bernoulli(dom: Obj, cod: Alphabet, *ps: Fraction) -> SubKernel:
    """The kernel dom -> cod, cod having two labels, whose row at dom's
    i-th outcome gives the first label ps[i] and the second the rest."""
    yes, no = cod.labels
    return make_kernel(
        dom, obj(cod), {x: {yes: p, no: 1 - p} for x, p in zip(dom.outcomes(), ps)}
    )


def newcomb(predictor_noise: Fraction | int | str = 0) -> DecisionProblem:
    """Two boxes, a predictor, and a payoff kernel that succeeds only
    when the prediction matches the action.

    The environment draws a prediction uniformly; the agent, observing
    nothing, draws an action uniformly; the consequence emits the payoff
    on agreement and fails on disagreement, so the surviving model is
    exactly conditioned on a correct prediction.  With predictor_noise
    e > 0 the consequence instead succeeds with probability 1 - e on
    agreement and e on disagreement.
    """
    (eps,) = _check_unit_interval(predictor_noise=predictor_noise).values()
    actions = Alphabet("action", ("one-box", "two-box"))
    prediction = Alphabet("prediction", ("one-box", "two-box"))
    payout = Alphabet("payout", ("1000", "0", "1001", "1"))
    # (prediction, action) -> payout
    payoff = {
        ("one-box", "one-box"): "1000",
        ("one-box", "two-box"): "1001",
        ("two-box", "one-box"): "0",
        ("two-box", "two-box"): "1",
    }
    consequence = make_kernel(
        obj(prediction, actions),
        obj(payout),
        {(p, a): {u: 1 - eps if p == a else eps} for (p, a), u in payoff.items()},
    )
    return DecisionProblem(
        "newcomb",
        actions,
        _uniform(obj(prediction)),
        _uniform(obj(actions)),
        consequence,
        _face_values(payout),
    )


def transparent_newcomb() -> DecisionProblem:
    """Newcomb with a transparent box: the agent observes the prediction
    itself, yet conditioning still favours taking one box."""
    base = newcomb()
    prediction = base.environment.cod
    # The observation wire carries a copy of the prediction, which the
    # agent discards before drawing an action uniformly.
    return DecisionProblem(
        "transparent-newcomb",
        base.actions,
        K.compose(base.environment, K.copy(prediction)),
        K.compose(K.discard(prediction), base.agent),
        base.consequence,
        dict(base.utilities),
    )


def monty_hall() -> DecisionProblem:
    """Three doors, a uniformly hidden prize, and a host who opens a
    non-prize, non-picked door; the agent then stays or switches."""
    door = Alphabet("door", ("1", "2", "3"))
    actions = Alphabet("action", ("stay", "switch"))
    payout = Alphabet("payout", ("1000", "0"))
    prize_pick = obj(door, door)
    # The host opens, uniformly, a door that is neither the prize nor the pick.
    host = {}
    for x in prize_pick.outcomes():
        options = [d for d in door.labels if d not in x]
        host[x] = {d: Fraction(1, len(options)) for d in options}

    def result(x: Outcome) -> Outcome:
        prize, pick, opened, a = x
        if a == "switch":
            # opened == pick never occurs under the environment; there the
            # first other door is taken, so the kernel stays total.
            pick = next(d for d in door.labels if d not in (pick, opened))
        return ("1000",) if pick == prize else ("0",)

    return DecisionProblem(
        "monty-hall",
        actions,
        cond_compose(_uniform(prize_pick), make_kernel(prize_pick, obj(door), host)),
        _uniform(obj(actions)),
        K.deterministic(obj(door, door, door, actions), obj(payout), result),
        _face_values(payout),
    )


_CITIES = ("damascus", "aleppo")
_CITY_OF = {"stay": "damascus", "flee": "aleppo"}
_DEATH_PAYOUT = Alphabet("payout", ("1000", "999", "0", "-1"))


def _meet_payout(agent_city: str, death_city: str, printed_table: bool) -> Outcome:
    """Payoff outcome for ending in agent_city while Death waits in
    death_city.  printed_table selects the variant whose meeting payoffs
    are swapped between the two cities."""
    in_damascus = agent_city == "damascus"
    if agent_city != death_city:
        return ("1000",) if in_damascus else ("999",)
    return ("0",) if in_damascus != printed_table else ("-1",)


def _death_problem(
    name: str, actions: Alphabet, death: SubKernel, consequence: SubKernel
) -> DecisionProblem:
    """A Death in Damascus problem: the disposition is drawn uniformly,
    Death's channel reads it, and the environment keeps the disposition
    beside what Death drew (its graph) as the agent's observation; the
    agent acts on its disposition."""
    disposition = death.dom
    return DecisionProblem(
        name,
        actions,
        K.compose(_uniform(disposition), K.graph(death)),
        K.deterministic(disposition, obj(actions), lambda d: d),
        consequence,
        _face_values(_DEATH_PAYOUT),
    )


def death_in_damascus(printed_table: bool = False) -> DecisionProblem:
    """Death perfectly predicts the agent's disposition and waits in the
    matching city; staying dominates fleeing."""
    disposition = Alphabet("disposition", ("stay", "flee"))
    actions = Alphabet("action", ("stay", "flee"))
    city = Alphabet("city", _CITIES)
    death = K.deterministic(obj(disposition), obj(city), lambda d: (_CITY_OF[d[0]],))
    consequence = K.deterministic(
        obj(city, actions),
        obj(_DEATH_PAYOUT),
        lambda x: _meet_payout(_CITY_OF[x[1]], x[0], printed_table),
    )
    name = "death-in-damascus" + ("-printed-table" if printed_table else "")
    return _death_problem(name, actions, death, consequence)


def death_in_damascus_coin(
    merchant_coin: Fraction | int | str = Fraction(1, 2),
    death_coin: Fraction | int | str = Fraction(1, 2),
) -> DecisionProblem:
    """Death in Damascus with a third strategy: let a merchant's coin
    decide.  Death predicts the strategy; against use-coin Death flips a
    coin too, so randomising escapes the predictor's grip.

    merchant_coin and death_coin give the probability that the
    respective coin sends its owner to Damascus.
    """
    mc, dc = _check_unit_interval(
        merchant_coin=merchant_coin, death_coin=death_coin
    ).values()
    disposition = Alphabet("disposition", ("stay", "flee", "use-coin"))
    actions = Alphabet("action", ("stay", "flee", "use-coin"))
    city = Alphabet("city", _CITIES)
    coin = Alphabet("coin", ("heads", "tails"))
    # Death's city given the disposition, beside the merchant's coin.
    death = K.tensor(
        make_kernel(
            obj(disposition),
            obj(city),
            {
                "stay": {"damascus": 1},
                "flee": {"aleppo": 1},
                "use-coin": {"damascus": dc, "aleppo": 1 - dc},
            },
        ),
        _bernoulli(UNIT, coin, mc),
    )

    def meet(x: Outcome) -> Outcome:
        death_city, face, a = x
        if a == "use-coin":
            a = "stay" if face == "heads" else "flee"
        return _meet_payout(_CITY_OF[a], death_city, False)

    consequence = K.deterministic(obj(city, coin, actions), obj(_DEATH_PAYOUT), meet)
    return _death_problem("death-in-damascus-coin", actions, death, consequence)


def smoking_lesion(
    gene_prior: Fraction | int | str = Fraction(1, 2),
    desire_given_gene: Fraction | int | str = Fraction(9, 10),
    desire_given_no_gene: Fraction | int | str = Fraction(1, 10),
    smoke_given_desire: Fraction | int | str = Fraction(9, 10),
    smoke_given_no_desire: Fraction | int | str = Fraction(1, 10),
) -> DecisionProblem:
    """A hidden gene causes both cancer and the desire to smoke; smoking
    itself is harmless.  Conditioning on the action still penalises
    smoking whenever the desire carries information about the gene."""
    g, dg, dn, sd, sn = _check_unit_interval(
        gene_prior=gene_prior,
        desire_given_gene=desire_given_gene,
        desire_given_no_gene=desire_given_no_gene,
        smoke_given_desire=smoke_given_desire,
        smoke_given_no_desire=smoke_given_no_desire,
    ).values()
    # The gene produces cancer deterministically, so the cancer wire is
    # the gene wire under another name.
    cancer = Alphabet("cancer", ("yes", "no"))
    desire = Alphabet("desire", ("yes", "no"))
    actions = Alphabet("action", ("smoke", "refrain"))
    payout = Alphabet("payout", ("-999", "1", "-1000", "0"))
    environment = cond_compose(
        _bernoulli(UNIT, cancer, g), _bernoulli(obj(cancer), desire, dg, dn)
    )
    payoff = {
        ("yes", "smoke"): ("-999",),
        ("no", "smoke"): ("1",),
        ("yes", "refrain"): ("-1000",),
        ("no", "refrain"): ("0",),
    }
    return DecisionProblem(
        "smoking-lesion",
        actions,
        environment,
        _bernoulli(obj(desire), actions, sd, sn),
        K.deterministic(obj(cancer, actions), obj(payout), payoff.__getitem__),
        _face_values(payout),
    )


CORPUS = {
    "newcomb": newcomb,
    "transparent-newcomb": transparent_newcomb,
    "monty-hall": monty_hall,
    "death-in-damascus": death_in_damascus,
    "death-in-damascus-coin": death_in_damascus_coin,
    "smoking-lesion": smoking_lesion,
}
