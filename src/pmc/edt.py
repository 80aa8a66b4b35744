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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from . import kernel as K
from .conditioning import normalise
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
        a_obj = obj(self.actions)
        if self.environment.dom != UNIT:
            raise TypeMismatch("environment must be a state")
        if self.agent.cod != a_obj:
            raise TypeMismatch("agent codomain must be the action alphabet")
        obs = self.agent.dom.factors
        c_factors = self.environment.cod.factors
        if obs and c_factors[len(c_factors) - len(obs):] != obs:
            raise TypeMismatch(
                "environment codomain must end with the observation object"
            )
        if self.consequence.dom != self.condition_obj.tensor(a_obj):
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
        return Obj(c[: len(c) - n_obs] if n_obs else c)

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
    payoff = {
        ("one-box", "one-box"): "1000",
        ("two-box", "one-box"): "0",
        ("one-box", "two-box"): "1001",
        ("two-box", "two-box"): "1",
    }
    environment = state(
        obj(prediction), {p: Fraction(1, 2) for p in prediction.labels}
    )
    agent = state(obj(actions), {a: Fraction(1, 2) for a in actions.labels})
    table = {
        (p, a): {payoff[(p, a)]: (1 - eps if p == a else eps)}
        for p in prediction.labels
        for a in actions.labels
    }
    consequence = make_kernel(obj(prediction, actions), obj(payout), table)
    utilities = {u: Fraction(u) for u in payout.labels}
    return DecisionProblem(
        "newcomb", actions, environment, agent, consequence, utilities
    )


def transparent_newcomb() -> DecisionProblem:
    """Newcomb with a transparent box: the agent observes the prediction
    itself, yet conditioning still favours taking one box."""
    base = newcomb()
    prediction = base.environment.cod.factors[0]
    actions = base.actions
    # The observation wire carries a copy of the prediction.
    environment = K.compose(base.environment, K.copy(obj(prediction)))
    agent = make_kernel(
        obj(prediction),
        obj(actions),
        {
            p: {a: Fraction(1, 2) for a in actions.labels}
            for p in prediction.labels
        },
    )
    return DecisionProblem(
        "transparent-newcomb",
        actions,
        environment,
        agent,
        base.consequence,
        dict(base.utilities),
    )


def monty_hall() -> DecisionProblem:
    """Three doors, a uniformly hidden prize, and a host who opens a
    non-prize, non-picked door; the agent then stays or switches."""
    door = Alphabet("door", ("1", "2", "3"))
    actions = Alphabet("action", ("stay", "switch"))
    payout = Alphabet("payout", ("1000", "0"))
    doors = door.labels
    env_row: dict = {}
    for prize in doors:
        for pick in doors:
            options = [d for d in doors if d != prize and d != pick]
            for opened in options:
                env_row[(prize, pick, opened)] = Fraction(1, 9 * len(options))
    environment = state(obj(door, door, door), env_row)
    agent = state(obj(actions), {a: Fraction(1, 2) for a in actions.labels})
    cons_table = {}
    for prize in doors:
        for pick in doors:
            for opened in doors:
                remaining = [d for d in doors if d != pick and d != opened]
                # opened == pick never occurs under the environment; default
                # to the first remaining door so the kernel stays total.
                switched = remaining[0] if remaining else pick
                for a in actions.labels:
                    final = pick if a == "stay" else switched
                    label = "1000" if final == prize else "0"
                    cons_table[(prize, pick, opened, a)] = {label: 1}
    consequence = make_kernel(
        obj(door, door, door, actions), obj(payout), cons_table
    )
    utilities = {u: Fraction(u) for u in payout.labels}
    return DecisionProblem(
        "monty-hall", actions, environment, agent, consequence, utilities
    )


_CITIES = ("damascus", "aleppo")


def _meet_payout(agent_city: str, death_city: str, printed_table: bool) -> str:
    """Payoff label for ending in agent_city while Death waits in
    death_city.  printed_table selects the variant whose meeting payoffs
    are swapped between the two cities."""
    if agent_city == death_city:
        if printed_table:
            return "0" if agent_city == "aleppo" else "-1"
        return "0" if agent_city == "damascus" else "-1"
    return "1000" if agent_city == "damascus" else "999"


def death_in_damascus(printed_table: bool = False) -> DecisionProblem:
    """Death perfectly predicts the agent's disposition and waits in the
    matching city; staying dominates fleeing."""
    disposition = Alphabet("disposition", ("stay", "flee"))
    actions = Alphabet("action", ("stay", "flee"))
    city = Alphabet("city", _CITIES)
    payout = Alphabet("payout", ("1000", "999", "0", "-1"))
    city_of = {"stay": "damascus", "flee": "aleppo"}
    env_row = {(city_of[d], d): Fraction(1, 2) for d in disposition.labels}
    environment = state(obj(city, disposition), env_row)
    agent = make_kernel(
        obj(disposition), obj(actions), {d: {d: 1} for d in disposition.labels}
    )
    cons_table = {}
    for death_city in _CITIES:
        for a in actions.labels:
            label = _meet_payout(city_of[a], death_city, printed_table)
            cons_table[(death_city, a)] = {label: 1}
    consequence = make_kernel(obj(city, actions), obj(payout), cons_table)
    utilities = {u: Fraction(u) for u in payout.labels}
    name = "death-in-damascus"
    if printed_table:
        name += "-printed-table"
    return DecisionProblem(
        name, actions, environment, agent, consequence, utilities
    )


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
    params = _check_unit_interval(
        merchant_coin=merchant_coin, death_coin=death_coin
    )
    mc, dc = params["merchant_coin"], params["death_coin"]
    disposition = Alphabet("disposition", ("stay", "flee", "use-coin"))
    actions = Alphabet("action", ("stay", "flee", "use-coin"))
    city = Alphabet("city", _CITIES)
    coin = Alphabet("coin", ("heads", "tails"))
    payout = Alphabet("payout", ("1000", "999", "0", "-1"))
    death_city_dist = {
        "stay": {"damascus": Fraction(1)},
        "flee": {"aleppo": Fraction(1)},
        "use-coin": {"damascus": dc, "aleppo": 1 - dc},
    }
    coin_dist = {"heads": mc, "tails": 1 - mc}
    env_row: dict = {}
    for d in disposition.labels:
        for death_city, pd in death_city_dist[d].items():
            for face, pf in coin_dist.items():
                w = Fraction(1, 3) * pd * pf
                if w:
                    env_row[(death_city, face, d)] = w
    environment = state(obj(city, coin, disposition), env_row)
    agent = make_kernel(
        obj(disposition), obj(actions), {d: {d: 1} for d in disposition.labels}
    )
    cons_table = {}
    for death_city in _CITIES:
        for face in coin.labels:
            for a in actions.labels:
                if a == "stay":
                    agent_city = "damascus"
                elif a == "flee":
                    agent_city = "aleppo"
                else:
                    agent_city = "damascus" if face == "heads" else "aleppo"
                label = _meet_payout(agent_city, death_city, False)
                cons_table[(death_city, face, a)] = {label: 1}
    consequence = make_kernel(obj(city, coin, actions), obj(payout), cons_table)
    utilities = {u: Fraction(u) for u in payout.labels}
    return DecisionProblem(
        "death-in-damascus-coin",
        actions,
        environment,
        agent,
        consequence,
        utilities,
    )


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
    params = _check_unit_interval(
        gene_prior=gene_prior,
        desire_given_gene=desire_given_gene,
        desire_given_no_gene=desire_given_no_gene,
        smoke_given_desire=smoke_given_desire,
        smoke_given_no_desire=smoke_given_no_desire,
    )
    g = params["gene_prior"]
    cancer = Alphabet("cancer", ("yes", "no"))
    desire = Alphabet("desire", ("yes", "no"))
    actions = Alphabet("action", ("smoke", "refrain"))
    payout = Alphabet("payout", ("-999", "1", "-1000", "0"))
    desire_dist = {
        "yes": params["desire_given_gene"],
        "no": params["desire_given_no_gene"],
    }
    env_row: dict = {}
    # The gene produces cancer deterministically, so the cancer wire is
    # the gene wire under another name.
    for gene, pg in (("yes", g), ("no", 1 - g)):
        dd = desire_dist[gene]
        for d, pd in (("yes", dd), ("no", 1 - dd)):
            w = pg * pd
            if w:
                env_row[(gene, d)] = w
    environment = state(obj(cancer, desire), env_row)
    smoke_dist = {
        "yes": params["smoke_given_desire"],
        "no": params["smoke_given_no_desire"],
    }
    agent = make_kernel(
        obj(desire),
        obj(actions),
        {
            d: {"smoke": smoke_dist[d], "refrain": 1 - smoke_dist[d]}
            for d in desire.labels
        },
    )
    payoff = {
        ("smoke", "yes"): "-999",
        ("smoke", "no"): "1",
        ("refrain", "yes"): "-1000",
        ("refrain", "no"): "0",
    }
    cons_table = {
        (c, a): {payoff[(a, c)]: 1}
        for c in cancer.labels
        for a in actions.labels
    }
    consequence = make_kernel(obj(cancer, actions), obj(payout), cons_table)
    utilities = {u: Fraction(u) for u in payout.labels}
    return DecisionProblem(
        "smoking-lesion", actions, environment, agent, consequence, utilities
    )


CORPUS = {
    "newcomb": newcomb,
    "transparent-newcomb": transparent_newcomb,
    "monty-hall": monty_hall,
    "death-in-damascus": death_in_damascus,
    "death-in-damascus-coin": death_in_damascus_coin,
    "smoking-lesion": smoking_lesion,
}
