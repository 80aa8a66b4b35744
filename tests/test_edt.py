"""Decision solver against independent enumeration oracles.

Each oracle walks the scenario's outcome space with plain loops and
Fractions — no library calls — and the solver must reproduce the
resulting conditional expected utilities exactly.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from pmc import conditioning as C
from pmc import edt
from pmc import kernel as K
from pmc.diagram import evaluate
from pmc.errors import (
    BadParameter,
    NoFeasibleAction,
    NotTotal,
    UndefinedUtility,
    UnknownAction,
)
from pmc.kernel import Alphabet, UNIT, make_kernel, obj, state

F = Fraction


# -- oracles -----------------------------------------------------------------


def newcomb_oracle():
    """EU per action given uniform prediction/action and a predictor that
    is observed to be correct."""
    payoff = {
        ("one-box", "one-box"): F(1000),
        ("one-box", "two-box"): F(0),
        ("two-box", "one-box"): F(1001),
        ("two-box", "two-box"): F(1),
    }
    eu = {}
    for action in ("one-box", "two-box"):
        num = den = F(0)
        for pred in ("one-box", "two-box"):
            w = F(1, 4)
            if pred != action:  # prediction observed correct
                continue
            num += w * payoff[(action, pred)]
            den += w
        eu[action] = num / den
    return eu


def monty_oracle():
    doors = ("1", "2", "3")
    eu = {"stay": F(0), "switch": F(0)}
    total = F(0)
    for prize in doors:
        for pick in doors:
            options = [d for d in doors if d not in (prize, pick)]
            for opened in options:
                w = F(1, 9) * F(1, len(options))
                total += w
                remaining = [d for d in doors if d not in (pick, opened)]
                eu["stay"] += w * (F(1000) if pick == prize else F(0))
                eu["switch"] += w * (
                    F(1000) if remaining[0] == prize else F(0)
                )
    return {a: v / total for a, v in eu.items()}


def damascus_oracle():
    payoff = {
        ("damascus", "damascus"): F(0),
        ("aleppo", "aleppo"): F(-1),
        ("damascus", "aleppo"): F(1000),
        ("aleppo", "damascus"): F(999),
    }
    city_of = {"stay": "damascus", "flee": "aleppo"}
    # Death's prediction is perfect, so conditioning on the action leaves
    # a single world per action.
    return {
        a: payoff[(city_of[a], city_of[a])] for a in ("stay", "flee")
    }


def damascus_coin_oracle():
    # Under use-coin both coins are fair and independent: the agent city
    # and Death's city are uniform over four pairs.
    payoff = {
        ("damascus", "damascus"): F(0),
        ("aleppo", "aleppo"): F(-1),
        ("damascus", "aleppo"): F(1000),
        ("aleppo", "damascus"): F(999),
    }
    acc = F(0)
    for agent_city in ("damascus", "aleppo"):
        for death_city in ("damascus", "aleppo"):
            acc += F(1, 4) * payoff[(agent_city, death_city)]
    return acc


def lesion_oracle(sd=F(9, 10), sn=F(1, 10)):
    g, dg, dn = F(1, 2), F(9, 10), F(1, 10)
    payoff = {
        ("smoke", True): F(-999),
        ("smoke", False): F(1),
        ("refrain", True): F(-1000),
        ("refrain", False): F(0),
    }
    eu = {}
    for action in ("smoke", "refrain"):
        num = den = F(0)
        for gene, pg in ((True, g), (False, 1 - g)):
            d_yes = dg if gene else dn
            for desire, pd in ((True, d_yes), (False, 1 - d_yes)):
                smoke_p = sd if desire else sn
                pa = smoke_p if action == "smoke" else 1 - smoke_p
                w = pg * pd * pa
                num += w * payoff[(action, gene)]
                den += w
        eu[action] = num / den
    return eu


# -- corpus numbers ----------------------------------------------------------


def test_newcomb_matches_oracle():
    oracle = newcomb_oracle()
    assert oracle == {"one-box": F(1000), "two-box": F(1)}
    pres = edt.solve(edt.newcomb())
    values = {v.action: v.expected_utility for v in pres.table}
    assert values == oracle
    assert pres.chosen == "one-box"
    assert pres.prescribed == ("one-box",)


def test_newcomb_action_state_mass():
    st = edt.action_state(edt.newcomb(), "one-box")
    assert st.mass(()) == F(1, 2)
    assert st.prob((), "1000") == F(1, 2)


def test_newcomb_utilities_table():
    utils = edt.newcomb().utilities
    assert utils == {
        "1000": F(1000), "0": F(0), "1001": F(1001), "1": F(1)
    }


def test_newcomb_predictor_noise_degrades_one_boxing():
    # e = 999/2000 is the indifference point; beyond it two-boxing wins.
    below = edt.solve(edt.newcomb(F(499, 1000)))
    above = edt.solve(edt.newcomb(F(1, 2)))
    assert below.chosen == "one-box"
    assert above.chosen == "two-box"
    exact = edt.solve(edt.newcomb(F(999, 2000)))
    assert set(exact.prescribed) == {"one-box", "two-box"}
    assert exact.chosen == "one-box"


def test_newcomb_noise_parameter_validated():
    with pytest.raises(BadParameter):
        edt.newcomb(F(3, 2))


def test_transparent_newcomb_still_one_boxes():
    pres = edt.solve(edt.transparent_newcomb())
    assert pres.chosen == "one-box"
    values = {v.action: v.expected_utility for v in pres.table}
    assert values == {"one-box": F(1000), "two-box": F(1)}


def test_monty_hall_matches_oracle():
    oracle = monty_oracle()
    assert oracle == {"stay": F(1000, 3), "switch": F(2000, 3)}
    pres = edt.solve(edt.monty_hall())
    values = {v.action: v.expected_utility for v in pres.table}
    assert values == oracle
    assert pres.chosen == "switch"


def test_death_in_damascus_matches_oracle():
    oracle = damascus_oracle()
    assert oracle == {"stay": F(0), "flee": F(-1)}
    pres = edt.solve(edt.death_in_damascus())
    values = {v.action: v.expected_utility for v in pres.table}
    assert values == oracle
    assert pres.chosen == "stay"


def test_death_in_damascus_printed_table_flips():
    pres = edt.solve(edt.death_in_damascus(printed_table=True))
    values = {v.action: v.expected_utility for v in pres.table}
    assert values == {"stay": F(-1), "flee": F(0)}
    assert pres.chosen == "flee"


def test_death_in_damascus_coin_matches_oracle():
    assert damascus_coin_oracle() == F(999, 2)
    pres = edt.solve(edt.death_in_damascus_coin())
    values = {v.action: v.expected_utility for v in pres.table}
    assert values == {
        "stay": F(0), "flee": F(-1), "use-coin": F(999, 2)
    }
    assert pres.chosen == "use-coin"


def test_death_in_damascus_coin_biased_merchant():
    # A merchant coin that always says Damascus reduces to staying.
    pres = edt.solve(edt.death_in_damascus_coin(merchant_coin=1))
    values = {v.action: v.expected_utility for v in pres.table}
    # Agent surely in Damascus, Death still fair: (0 + 1000) / 2.
    assert values["use-coin"] == F(500)
    assert values["stay"] == F(0)


def test_smoking_lesion_matches_oracle():
    oracle = lesion_oracle()
    assert oracle == {"smoke": F(-819), "refrain": F(-180)}
    pres = edt.solve(edt.smoking_lesion())
    values = {v.action: v.expected_utility for v in pres.table}
    assert values == oracle
    assert pres.chosen == "refrain"


def test_smoking_lesion_independence_flips_to_smoking():
    oracle = lesion_oracle(sd=F(1, 2), sn=F(1, 2))
    assert oracle == {"smoke": F(-499), "refrain": F(-500)}
    pres = edt.solve(
        edt.smoking_lesion(
            smoke_given_desire=F(1, 2), smoke_given_no_desire=F(1, 2)
        )
    )
    values = {v.action: v.expected_utility for v in pres.table}
    assert values == oracle
    assert pres.chosen == "smoke"


# -- solver mechanics --------------------------------------------------------


def test_partition_of_unity():
    for build in edt.CORPUS.values():
        problem = build()
        total = sum(
            (edt.action_state(problem, a).mass(()) for a in problem.actions.labels),
            F(0),
        )
        assert total == 1
        assert total == C.normalise(
            evaluate(edt.model_term(problem))
        ).mass(())


def test_oracle_equivalence_with_conditioning_route():
    # Conditioning the joint (action, utility) distribution on the action
    # via the conditioning module must give the same expected utilities.
    for build in edt.CORPUS.values():
        problem = build()
        joint = evaluate(edt.model_term(problem))  # I -> U (x) A
        flipped = K.compose(
            joint, K.swap(problem.utility_obj, problem.action_obj)
        )
        cond = C.conditional(flipped, 1)  # A (x) I -> U
        for a in problem.actions.labels:
            row = cond.rows.get((a,), {})
            st = edt.action_state(problem, a)
            if not row:
                assert st.mass(()) == 0
                continue
            via_cond = sum(
                (p * problem.utilities[u[0]] for u, p in row.items()), F(0)
            )
            assert via_cond == edt.expected_utility(st, problem.utilities)


def test_affine_utility_invariance():
    for build in edt.CORPUS.values():
        problem = build()
        scaled = edt.DecisionProblem(
            problem.name,
            problem.actions,
            problem.environment,
            problem.agent,
            problem.consequence,
            {u: 3 * v + 7 for u, v in problem.utilities.items()},
        )
        base = edt.solve(problem)
        moved = edt.solve(scaled)
        assert base.prescribed == moved.prescribed
        assert base.chosen == moved.chosen
        for b, m in zip(base.table, moved.table):
            if b.expected_utility is None:
                assert m.expected_utility is None
            else:
                assert m.expected_utility == 3 * b.expected_utility + 7


def test_unknown_action_rejected():
    with pytest.raises(UnknownAction):
        edt.action_state(edt.newcomb(), "three-box")


def test_deterministic_agent_gives_zero_mass_elsewhere():
    actions = Alphabet("action", ("l", "r"))
    u = Alphabet("payout", ("win",))
    problem = edt.DecisionProblem(
        "pointy",
        actions,
        state(UNIT, {(): 1}),
        K.dirac(obj(actions), "l"),
        make_kernel(obj(actions), obj(u), {a: {"win": 1} for a in actions.labels}),
        {"win": F(1)},
    )
    assert edt.action_state(problem, "r").mass(()) == 0
    pres = edt.solve(problem)
    assert pres.chosen == "l"
    assert [v.expected_utility for v in pres.table] == [F(1), None]


def test_no_feasible_action():
    actions = Alphabet("action", ("l", "r"))
    u = Alphabet("payout", ("win",))
    problem = edt.DecisionProblem(
        "stuck",
        actions,
        state(UNIT, {(): 1}),
        state(obj(actions), {"l": 1}),
        make_kernel(obj(actions), obj(u), {}),  # consequence always fails
        {"win": F(1)},
    )
    with pytest.raises(NoFeasibleAction):
        edt.solve(problem)


def test_expected_utility_zero_mass_undefined():
    u = Alphabet("payout", ("win",))
    empty = K.SubKernel(UNIT, obj(u), {})
    with pytest.raises(UndefinedUtility):
        edt.expected_utility(empty, {"win": F(1)})


def test_problem_validation():
    base = edt.newcomb()
    prediction = base.environment.cod.factors[0]
    with pytest.raises(NotTotal):
        edt.DecisionProblem(
            "bad",
            base.actions,
            state(obj(prediction), {"one-box": F(1, 2)}),  # non-total env
            base.agent,
            base.consequence,
            dict(base.utilities),
        )
    from pmc.errors import UnknownLabel

    with pytest.raises(UnknownLabel):
        edt.DecisionProblem(
            "bad",
            base.actions,
            base.environment,
            base.agent,
            base.consequence,
            {"1000": F(1000)},  # missing utility labels
        )


def test_corpus_parameters_validated():
    with pytest.raises(BadParameter):
        edt.smoking_lesion(gene_prior=2)
    with pytest.raises(BadParameter):
        edt.death_in_damascus_coin(merchant_coin="-1/2")


def many_action_newcomb():
    """Newcomb with 30 actions: a uniform prediction, an agent that favours
    earlier actions, and a payoff that mostly fails on a wrong prediction."""
    n, noise = 30, F(1, 100)
    labels = tuple(f"a{i:02d}" for i in range(n))
    actions = Alphabet("action", labels)
    prediction = Alphabet("prediction", labels)
    payout = Alphabet("payout", labels)
    weights = {a: F(2 * (n - i), n * (n + 1)) for i, a in enumerate(labels)}
    consequence = make_kernel(
        obj(prediction, actions),
        obj(payout),
        {
            (p, a): {a: 1 - noise} if p == a else {p: noise}
            for p in labels
            for a in labels
        },
    )
    return edt.DecisionProblem(
        "newcomb-many",
        actions,
        state(obj(prediction), {p: F(1, n) for p in labels}),
        state(obj(actions), weights),
        consequence,
        {u: F(i * i, 7) for i, u in enumerate(labels)},
    )


def test_solve_evaluates_the_model_once(monkeypatch):
    from pmc.laws import observed_action_state

    problem = many_action_newcomb()
    joint = edt.conditioned_model(problem)
    expected = []
    for a in problem.actions.labels:
        st = observed_action_state(problem, joint, a)
        mass = st.mass(())
        eu = edt.expected_utility(st, problem.utilities) if mass else None
        expected.append((a, mass, eu))

    calls = []
    original = edt.conditioned_model

    def counting(p):
        calls.append(p.name)
        return original(p)

    monkeypatch.setattr(edt, "conditioned_model", counting)
    pres = edt.solve(problem)
    assert calls == ["newcomb-many"]
    table = [(v.action, v.mass, v.expected_utility) for v in pres.table]
    assert table == expected
    assert all(mass > 0 for _, mass, _ in expected)


def test_solve_builds_no_wiring_kernel(monkeypatch):
    # The model's Ids, its copy and its consequence (x) id_A are folded
    # into the compositions: no structural kernel or tensor is built.
    calls = []
    for name in ("tensor", "identity", "copy"):
        def counting(*args, _name=name, _original=getattr(K, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(K, name, counting)
    edt.solve(many_action_newcomb())
    assert calls == []
