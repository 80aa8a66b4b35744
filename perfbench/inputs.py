"""Seeded input documents for the four workloads, built without pmc.

Everything here uses the standard library only, so a change to pmc
cannot change what the benchmark feeds it; run.py prints a digest of
the staged documents to show that two commits saw the same inputs.

Each workload is a fixed list of slots.  What sets a slot's cost is
fixed per slot by a layout generator keyed on the slot's index: sizes,
leaf order, supports, failing rows and denominators.  The seed draws
the contents: how each row's mass is split, generator tables, payoffs
and utilities, and the laws' case seeds.  So seeds change the inputs
without changing the load, and run-to-run spread measures the program
and the machine rather than the luck of the draw.  Slot counts are odd
multiples of five (15, 25), so the median and the 90th percentile of a
whole number of passes fall inside one slot's group of latencies
rather than on the edge between two slots.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from reference import rational

WORKLOADS = ("laws", "solve", "dense-eval", "wide-eval")

# The 22 laws registered when the benchmark was defined.  Pinned here,
# not read from the registry, so that adding a law does not change the
# workload; a pinned name the registry lacks makes its ops fail.
LAWS = (
    "category",
    "comonoid",
    "uniformity",
    "frobenius",
    "interchange",
    "swap-naturality",
    "splitting",
    "quasi-total-conditional",
    "marginal-by-discard",
    "normalisation-equation",
    "normalisation-idempotent",
    "prop30-conditional-of-normalisation",
    "bayes-inversion-equation",
    "compositional-inversion",
    "synthetic-bayes",
    "pearl-equals-jeffrey",
    "quasi-total-iff-deterministic-failure",
    "predicate-diagram-agreement",
    "deterministic-copyable",
    "observe-axiom",
    "embedding-faithfulness",
    "normal-form-soundness",
)
LAW_CASES = 200

# dense-eval: alphabet sizes along a compose chain of 2-3 dense generators.
DENSE_SHAPES = (
    (8, 8, 8),
    (8, 12, 8),
    (12, 8, 12),
    (8, 16, 8),
    (12, 12, 12),
    (8, 16, 16, 8),
    (16, 8, 16, 8),
    (16, 12, 16),
    (12, 12, 12, 12),
    (16, 16, 16),
    (20, 12, 20),
    (16, 20, 16),
    (16, 16, 16, 16),
    (20, 20, 20),
    (24, 16, 24),
    (20, 20, 20, 20),
    (24, 24, 24),
    (16, 24, 32),
    (28, 20, 28),
    (24, 24, 24, 24),
    (28, 28, 28),
    (32, 24, 32),
    (24, 32, 24, 32),
    (32, 28, 32),
    (32, 32, 32),
)

# wide-eval: (structural leaves k, ternary leaves, swaps, copies,
# generator domain factors).  Rows emitted = 2^bits * 3^trits, where a
# swap adds a binary wire and the generator adds one when its domain is
# not the unit.
WIDE_SHAPES = (
    (8, 0, 0, 2, 0),
    (8, 3, 0, 1, 1),
    (8, 2, 1, 3, 0),
    (9, 0, 0, 3, 1),
    (9, 2, 0, 0, 0),
    (9, 1, 1, 2, 0),
    (10, 0, 0, 4, 0),
    (10, 1, 0, 2, 1),
    (10, 0, 1, 1, 0),
    (11, 0, 0, 5, 0),
    (11, 1, 0, 3, 0),
    (12, 0, 0, 6, 0),
    (12, 1, 0, 2, 0),
    (13, 0, 0, 4, 0),
    (13, 0, 0, 0, 0),
)

# solve: random problems as (actions, condition alphabet sizes,
# observation alphabet sizes, utility labels, failing consequence rows,
# infeasible).  An infeasible problem's consequence fails wherever the
# environment has mass, so the right answer is NoFeasibleAction.
SOLVE_SHAPES = (
    (2, (2,), (), 2, 0, False),
    (3, (3,), (2,), 3, 1, False),
    (4, (2, 2), (2,), 3, 2, False),
    (3, (4,), (3,), 4, 3, False),
    (5, (3,), (2, 2), 3, 4, False),
    (6, (2, 3), (2,), 4, 6, False),
    (4, (3, 3), (3,), 5, 8, False),
    (2, (4,), (2,), 2, 0, True),
    (3, (2, 2), (2,), 3, 0, True),
    (5, (3,), (3,), 4, 0, True),
    (6, (4,), (2,), 4, 10, False),
    (8, (3,), (2,), 3, 5, False),
    (4, (2,), (4,), 3, 2, False),
)
# Action counts of the N-action Newcomb family.
NEWCOMB_SIZES = (6, 10, 14, 18, 24, 30)

BIT = ("bit", ("0", "1"))
TRIT = ("trit", ("0", "1", "2"))


@dataclass(frozen=True)
class Slot:
    """One input: the documents an op reads, and what the reference
    check needs to compute the expected output."""

    doc: tuple
    spec: object


@dataclass(frozen=True)
class Problem:
    """A decision problem in plain data; alphabets are (name, labels)."""

    name: str
    actions: tuple
    condition: tuple
    observation: tuple
    utility: tuple
    environment: dict  # condition + observation outcome -> probability
    agent: dict  # observation outcome -> {action: probability}
    consequence: dict  # condition outcome + (action,) -> {label: probability}
    utilities: dict  # utility label -> value


@dataclass(frozen=True)
class Chain:
    alphabets: tuple
    matrices: tuple  # matrices[i][r][c]: entry of generator i, all positive


@dataclass(frozen=True)
class Wide:
    leaves: tuple  # ("id"|"copy", alph) | ("swap", alph, alph) | ("gen", dom, cod, table)


def _alphabet_json(a) -> dict:
    return {"name": a[0], "labels": list(a[1])}


def _kernel_json(dom, cod, rows) -> dict:
    return {
        "dom": [_alphabet_json(a) for a in dom],
        "cod": [_alphabet_json(a) for a in cod],
        "rows": [
            {
                "in": list(x),
                "out": [{"val": list(y), "p": rational(p)} for y, p in row.items() if p],
            }
            for x, row in rows.items()
            if any(row.values())
        ],
    }


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _parts(rng: random.Random, total: int, n: int) -> list[int]:
    """n positive integers summing to total (total >= n)."""
    cuts = sorted(rng.sample(range(1, total), n - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def _row(layout: random.Random, rng: random.Random, labels, total_mass: bool) -> dict:
    """A random subdistribution with every label in its support: the
    layout fixes its denominator and mass, the seed splits the mass."""
    n = len(labels)
    den = layout.randint(max(2, n), 64)
    total = den if total_mass else layout.randint(n, den)
    return {y: Fraction(w, den) for y, w in zip(labels, _parts(rng, total, n))}


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def _prime_row(layout: random.Random, rng: random.Random, n: int) -> dict:
    """A dense row over a prime denominator, so no entry reduces and the
    size of the arithmetic does not depend on how the seed splits it."""
    den = layout.choice([p for p in _PRIMES if p >= n])
    total = den if layout.random() < 0.5 else layout.randint(n, den)
    return {y: Fraction(w, den) for y, w in enumerate(_parts(rng, total, n))}


def _sub_row(layout: random.Random, rng: random.Random, labels, total_mass: bool) -> dict:
    """As _row, on a nonempty subset of labels that the layout picks."""
    support = [y for y in labels if layout.random() < 0.7] or [layout.choice(labels)]
    return _row(layout, rng, support, total_mass)


# -- laws ------------------------------------------------------------------


def _laws(rng: random.Random) -> list[Slot]:
    seeds = [rng.randrange(2**32) for _ in range(LAW_CASES)]
    return [Slot((name, s), None) for s in seeds for name in LAWS]


# -- dense-eval ------------------------------------------------------------


def _dense(rng: random.Random) -> list[Slot]:
    slots = []
    for index, sizes in enumerate(DENSE_SHAPES):
        layout = random.Random(f"dense-layout:{index}")
        alphabets = tuple(
            (f"d{i}", tuple(f"v{j:02d}" for j in range(n)))
            for i, n in enumerate(sizes)
        )
        matrices = tuple(
            tuple(
                tuple(_prime_row(layout, rng, m).values())
                for _ in range(n)
            )
            for n, m in zip(sizes, sizes[1:])
        )
        kernels = {}
        for i, mat in enumerate(matrices):
            a, b = alphabets[i], alphabets[i + 1]
            rows = {
                (a[1][r],): {(b[1][c],): q for c, q in enumerate(row)}
                for r, row in enumerate(mat)
            }
            kernels[f"g{i}"] = _kernel_json([a], [b], rows)
        env = {"alphabets": [_alphabet_json(a) for a in alphabets], "kernels": kernels}
        term = {
            "op": "compose",
            "terms": [{"op": "gen", "name": f"g{i}"} for i in range(len(matrices))],
        }
        slots.append(Slot((_dumps(env), _dumps(term)), Chain(alphabets, matrices)))
    return slots


# -- wide-eval -------------------------------------------------------------


def _wide(rng: random.Random) -> list[Slot]:
    slots = []
    for index, (k, trits, swaps, copies, gen_dom) in enumerate(WIDE_SHAPES):
        # The tensor folds left to right, so leaf order sets the cost.
        layout = random.Random(f"wide-layout:{index}")
        kinds = ["swap"] * swaps + ["copy"] * copies + ["id"] * (k - swaps - copies)
        alphs = [TRIT] * trits + [BIT] * (k - trits)
        layout.shuffle(kinds)
        layout.shuffle(alphs)
        leaves = []
        for kind, a in zip(kinds, alphs):
            if kind == "swap":
                leaves.append(("swap", a, BIT) if rng.random() < 0.5 else ("swap", BIT, a))
            else:
                leaves.append((kind, a))
        g_dom = (BIT,) if gen_dom else ()
        g_cod = TRIT
        table = {x: (rng.choice(g_cod[1]),) for x in product(*(a[1] for a in g_dom))}
        leaves.insert(layout.randrange(k + 1), ("gen", g_dom, (g_cod,), table))
        env = {
            "alphabets": [_alphabet_json(BIT), _alphabet_json(TRIT)],
            "kernels": {
                "g": _kernel_json(
                    g_dom, (g_cod,), {x: {y: Fraction(1)} for x, y in table.items()}
                )
            },
        }
        terms = []
        for leaf in leaves:
            if leaf[0] == "gen":
                terms.append({"op": "gen", "name": "g"})
            elif leaf[0] == "swap":
                terms.append({"op": "swap", "left": [leaf[1][0]], "right": [leaf[2][0]]})
            else:
                terms.append({"op": leaf[0], "obj": [leaf[1][0]]})
        term = {"op": "tensor", "terms": terms}
        slots.append(Slot((_dumps(env), _dumps(term)), Wide(tuple(leaves))))
    return slots


# -- solve -----------------------------------------------------------------


def _problem_json(p: Problem) -> dict:
    return {
        "name": p.name,
        "actions": _alphabet_json(p.actions),
        "environment": _kernel_json((), p.condition + p.observation, {(): p.environment}),
        "agent": _kernel_json(
            p.observation,
            (p.actions,),
            {x: {(a,): q for a, q in row.items()} for x, row in p.agent.items()},
        ),
        "consequence": _kernel_json(
            p.condition + (p.actions,),
            (p.utility,),
            {x: {(u,): q for u, q in row.items()} for x, row in p.consequence.items()},
        ),
        "utilities": {u: rational(v) for u, v in p.utilities.items()},
    }


def _outcomes(alphabets) -> list[tuple]:
    return list(product(*(a[1] for a in alphabets)))


def _random_problem(rng: random.Random, index: int, shape) -> Problem:
    layout = random.Random(f"solve-layout:{index}")
    n_actions, cond_sizes, obs_sizes, n_utils, n_fail, infeasible = shape
    actions = ("action", tuple(f"a{i}" for i in range(n_actions)))
    condition = tuple(
        (f"cond{i}", tuple(f"c{j}" for j in range(n))) for i, n in enumerate(cond_sizes)
    )
    observation = tuple(
        (f"obs{i}", tuple(f"o{j}" for j in range(n))) for i, n in enumerate(obs_sizes)
    )
    utility = ("payout", tuple(f"u{i}" for i in range(n_utils)))
    conds = _outcomes(condition)
    obs = _outcomes(observation)
    # Infeasible problems put the environment's mass on a strict subset
    # of conditions and let the consequence fail on all of it.
    reachable = layout.sample(conds, len(conds) // 2) if infeasible else conds
    env_support = [c + o for c in reachable for o in obs if layout.random() < 0.8]
    env_support = env_support or [reachable[0] + obs[0]]
    environment = _row(layout, rng, env_support, True)
    agent = {o: _sub_row(layout, rng, actions[1], True) for o in obs}
    cells = [c + (a,) for c in conds for a in actions[1]]
    if infeasible:
        live = [x for x in cells if x[: len(condition)] not in reachable]
    else:
        failing = set(layout.sample(cells, n_fail))
        live = [x for x in cells if x not in failing]
    consequence = {
        x: _sub_row(layout, rng, utility[1], layout.random() < 0.5) for x in live
    }
    utilities = {
        u: Fraction(rng.randint(-200, 1000), rng.randint(1, 6)) for u in utility[1]
    }
    return Problem(
        f"random-{index}",
        actions,
        condition,
        observation,
        utility,
        environment,
        agent,
        consequence,
        utilities,
    )


def _newcomb_n(rng: random.Random, n: int) -> Problem:
    """N actions, a uniform perfect predictor over them, and a payoff
    drawn per (prediction, action) pair; mispredictions fail."""
    labels = tuple(f"a{i:02d}" for i in range(n))
    actions = ("action", labels)
    prediction = ("prediction", labels)
    utility = ("payout", tuple(f"u{i}" for i in range(4)))
    uniform = Fraction(1, n)
    return Problem(
        f"newcomb-{n}",
        actions,
        (prediction,),
        (),
        utility,
        {(p,): uniform for p in labels},
        {(): {a: uniform for a in labels}},
        {(p, p): {rng.choice(utility[1]): Fraction(1)} for p in labels},
        {u: Fraction(rng.randint(0, 1000)) for u in utility[1]},
    )


def _payout(labels) -> tuple:
    return ("payout", tuple(labels))


def _values(labels) -> dict:
    return {u: Fraction(u) for u in labels}


def corpus() -> list[Problem]:
    """The six built-in problems with their default parameters, written
    out as data: newcomb, transparent-newcomb, monty-hall,
    death-in-damascus, death-in-damascus-coin and smoking-lesion."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    boxes = ("one-box", "two-box")
    action = ("action", boxes)
    prediction = ("prediction", boxes)
    nc_payout = _payout(("1000", "0", "1001", "1"))
    nc_payoff = {
        ("one-box", "one-box"): "1000",
        ("two-box", "one-box"): "0",
        ("one-box", "two-box"): "1001",
        ("two-box", "two-box"): "1",
    }
    nc_consequence = {(p, p): {nc_payoff[(p, p)]: Fraction(1)} for p in boxes}
    newcomb = Problem(
        "newcomb", action, (prediction,), (), nc_payout,
        {(p,): half for p in boxes}, {(): {a: half for a in boxes}},
        nc_consequence, _values(nc_payout[1]),
    )
    transparent = Problem(
        "transparent-newcomb", action, (prediction,), (prediction,), nc_payout,
        {(p, p): half for p in boxes}, {(p,): {a: half for a in boxes} for p in boxes},
        nc_consequence, _values(nc_payout[1]),
    )

    doors = ("1", "2", "3")
    door = ("door", doors)
    mh_actions = ("action", ("stay", "switch"))
    mh_payout = _payout(("1000", "0"))
    mh_env = {}
    for prize, pick in product(doors, doors):
        options = [d for d in doors if d not in (prize, pick)]
        for opened in options:
            mh_env[(prize, pick, opened)] = Fraction(1, 9 * len(options))
    mh_cons = {}
    for prize, pick, opened in product(doors, doors, doors):
        remaining = [d for d in doors if d not in (pick, opened)]
        for a in mh_actions[1]:
            final = pick if a == "stay" else remaining[0]
            mh_cons[(prize, pick, opened, a)] = {
                "1000" if final == prize else "0": Fraction(1)
            }
    monty = Problem(
        "monty-hall", mh_actions, (door, door, door), (), mh_payout,
        mh_env, {(): {a: half for a in mh_actions[1]}}, mh_cons, _values(mh_payout[1]),
    )

    cities = ("damascus", "aleppo")
    city = ("city", cities)
    dd_payout = _payout(("1000", "999", "0", "-1"))

    def meet(agent_city, death_city):
        if agent_city == death_city:
            return "0" if agent_city == "damascus" else "-1"
        return "1000" if agent_city == "damascus" else "999"

    city_of = {"stay": "damascus", "flee": "aleppo"}
    moves = ("stay", "flee")
    damascus = Problem(
        "death-in-damascus", ("action", moves), (city,), (("disposition", moves),),
        dd_payout,
        {(city_of[d], d): half for d in moves},
        {(d,): {d: Fraction(1)} for d in moves},
        {(c, a): {meet(city_of[a], c): Fraction(1)} for c in cities for a in moves},
        _values(dd_payout[1]),
    )

    strategies = ("stay", "flee", "use-coin")
    faces = ("heads", "tails")
    death_city = {
        "stay": {"damascus": Fraction(1)},
        "flee": {"aleppo": Fraction(1)},
        "use-coin": {"damascus": half, "aleppo": half},
    }
    coin_env = {
        (c, face, d): third * pc * half
        for d in strategies
        for c, pc in death_city[d].items()
        for face in faces
    }
    coin_cons = {}
    for c, face, a in product(cities, faces, strategies):
        goes = city_of.get(a) or ("damascus" if face == "heads" else "aleppo")
        coin_cons[(c, face, a)] = {meet(goes, c): Fraction(1)}
    coin = Problem(
        "death-in-damascus-coin", ("action", strategies),
        (city, ("coin", faces)), (("disposition", strategies),), dd_payout,
        coin_env, {(d,): {d: Fraction(1)} for d in strategies}, coin_cons,
        _values(dd_payout[1]),
    )

    yes_no = ("yes", "no")
    sl_payout = _payout(("-999", "1", "-1000", "0"))
    desire_given = {"yes": Fraction(9, 10), "no": Fraction(1, 10)}
    smoke_given = {"yes": Fraction(9, 10), "no": Fraction(1, 10)}
    sl_env = {}
    for gene, pg in (("yes", half), ("no", half)):
        for d, pd in (("yes", desire_given[gene]), ("no", 1 - desire_given[gene])):
            sl_env[(gene, d)] = pg * pd
    payoff = {
        ("smoke", "yes"): "-999",
        ("smoke", "no"): "1",
        ("refrain", "yes"): "-1000",
        ("refrain", "no"): "0",
    }
    smoking = Problem(
        "smoking-lesion", ("action", ("smoke", "refrain")), (("cancer", yes_no),),
        (("desire", yes_no),), sl_payout, sl_env,
        {(d,): {"smoke": smoke_given[d], "refrain": 1 - smoke_given[d]} for d in yes_no},
        {(c, a): {payoff[(a, c)]: Fraction(1)} for c in yes_no for a in ("smoke", "refrain")},
        _values(sl_payout[1]),
    )
    return [newcomb, transparent, monty, damascus, coin, smoking]


def _solve(rng: random.Random) -> list[Slot]:
    problems = corpus()
    problems += [_newcomb_n(rng, n) for n in NEWCOMB_SIZES]
    problems += [_random_problem(rng, i, s) for i, s in enumerate(SOLVE_SHAPES)]
    return [Slot((_dumps(_problem_json(p)),), p) for p in problems]


_STAGERS = {"laws": _laws, "solve": _solve, "dense-eval": _dense, "wide-eval": _wide}


def stage(workload: str, seed: int) -> list[Slot]:
    """The slots of one pass of `workload`, generated from `seed`."""
    return _STAGERS[workload](random.Random(f"{workload}:{seed}"))
