"""Law registry behaviour, seeded generation, and the deliberate-bug smoke test."""

from __future__ import annotations

import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from pmc import codec
from pmc import diagram as D
from pmc import edt
from pmc import kernel as K
from pmc import laws
from pmc.errors import BadDensity, NoFeasibleAction, UnknownLaw
from pmc.kernel import Alphabet, Obj, UNIT, make_kernel, obj

B = Alphabet("bool", ("t", "f"))
BO = obj(B)

REQUIRED_LAWS = (
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
    "normal-form-soundness",
    "embedding-faithfulness",
    "solver-observe-agreement",
)

GOLDEN_42 = {
    "dom": [{"name": "bool", "labels": ["t", "f"]}],
    "cod": [{"name": "bool", "labels": ["t", "f"]}],
    "rows": [
        {
            "in": ["f"],
            "out": [
                {"val": ["f"], "p": "37/43"},
                {"val": ["t"], "p": "6/43"},
            ],
        },
        {
            "in": ["t"],
            "out": [
                {"val": ["f"], "p": "1/5"},
                {"val": ["t"], "p": "1/5"},
            ],
        },
    ],
}


def test_registry_contains_required_laws():
    for name in REQUIRED_LAWS:
        assert name in laws.REGISTRY


def test_unknown_law_rejected():
    with pytest.raises(UnknownLaw):
        laws.check_law("no-such-law", 1, 7)


# -- random_kernel -----------------------------------------------------------


def test_random_kernel_density_zero_is_all_fail():
    k = laws.random_kernel(3, BO, BO, 0)
    assert k.rows == {}


def test_random_kernel_density_validated():
    with pytest.raises(BadDensity):
        laws.random_kernel(3, BO, BO, Fraction(3, 2))


def test_random_kernel_deterministic_and_golden():
    a = laws.random_kernel(42, BO, BO, Fraction(3, 4))
    b = laws.random_kernel(42, BO, BO, Fraction(3, 4))
    assert a == b
    assert json.loads(codec.to_text(codec.kernel_to_json(a))) == GOLDEN_42


def test_random_kernel_validates():
    for seed in range(20):
        k = laws.random_kernel(seed, BO, obj(B, Alphabet("x", ("a", "b", "c"))), Fraction(1, 2))
        # Re-validating through make_kernel must accept every generated row.
        rebuilt = make_kernel(k.dom, k.cod, {x: dict(r) for x, r in k.rows.items()})
        assert rebuilt == k
        for x in k.dom.outcomes():
            assert k.mass(x) <= 1
        for row in k.rows.values():
            for p in row.values():
                assert p.denominator <= laws.MAX_DENOMINATOR
                assert p > 0


def test_random_kernel_density_one_fills_rows():
    k = laws.random_kernel(5, BO, BO, 1)
    for x in BO.outcomes():
        assert set(k.rows[x]) == set(BO.outcomes())


class _Draws:
    """A stand-in for Random that returns scripted draws, then 1/2."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0) if self.draws else 0.5


@pytest.mark.parametrize(
    "density",
    [Fraction(1, 3), Fraction(7, 10), Fraction(1, 2**53), Fraction(2**60 - 1, 2**60)],
)
def test_density_test_is_exact_at_the_boundary(density):
    # random() is c / 2**53; the draws just below and at the density.  At
    # 7/10 the draw just below is the one a float test `< 0.7` excludes.
    c = -(-density.numerator * 2**53 // density.denominator)
    draws = [(c - 1) / 2**53, c / 2**53, (c + 1) / 2**53, 0.0]
    cod = obj(Alphabet("x", ("a", "b", "c", "d")))
    expected = [y for y, r in zip(cod.outcomes(), draws) if r < density]
    for total in (False, True):
        k = laws._rand_kernel(_Draws(draws), UNIT, cod, density, total=total)
        assert list(k.row(())) == expected, f"total={total}"


def test_total_kernel_fills_a_row_with_no_drawn_entry():
    # No draw passes the 7/10 cut: a total kernel picks one output and
    # gives it mass 1, where a general kernel leaves the row out.
    cod = obj(Alphabet("x", ("a", "b", "c", "d")))
    k = laws._rand_kernel(_Draws([0.9] * 4), UNIT, cod, total=True)
    assert len(k.row(())) == 1
    assert k.mass(()) == 1
    general = laws._rand_kernel(_Draws([0.9] * 4), UNIT, cod, Fraction(7, 10))
    assert general.rows == {}


def test_random_total_kernel_is_total():
    rng = laws._stable_rng("t", 1)
    k = laws._rand_kernel(rng, BO, obj(Alphabet("x", ("a", "b", "c"))), total=True)
    assert K.is_total(k)


# -- check_law ---------------------------------------------------------------


def test_check_law_all_pass_small_run():
    for name in ("frobenius", "splitting", "synthetic-bayes"):
        report = laws.check_law(name, 25, 7)
        assert report.failures == 0
        assert report.passes == 25
        assert report.counterexample is None


def test_reports_are_byte_identical():
    a = laws.check_law("bayes-inversion-equation", 30, 11)
    b = laws.check_law("bayes-inversion-equation", 30, 11)
    assert json.dumps(codec.report_to_json(a)) == json.dumps(
        codec.report_to_json(b)
    )


def test_check_all_covers_registry_in_order():
    reports = laws.check_all(2, 7)
    assert [r.law for r in reports] == list(laws.REGISTRY)


def test_mutated_compare_breaks_frobenius(monkeypatch):
    wiring = D._wiring

    def broken_wiring(term):
        w = wiring(term)
        if type(term) is not D.Compare:
            return w
        # Project the first copy of the object, ignoring the comparison.
        n = len(term.obj.factors)
        return w[0], w[1], lambda o: o[:n]

    monkeypatch.setattr(D, "_wiring", broken_wiring)
    report = laws.check_law("frobenius", 40, 7)
    assert report.failures > 0
    cx = report.counterexample
    assert cx is not None
    assert cx["case"] == min(
        i for i in range(40)
        if laws.REGISTRY["frobenius"](laws._stable_rng("law", "frobenius", 7, i))
    )
    # Counterexample kernels replay through the CLI kernel schema.
    doc = json.loads(codec.to_text(cx))
    lhs = codec.kernel_from_json(doc["lhs"])
    rhs = codec.kernel_from_json(doc["rhs"])
    assert lhs != rhs


def test_lossy_relabel_in_evaluate_breaks_the_structural_laws(monkeypatch):
    # evaluate folds every wiring node in a chain, bare or whiskered, by
    # relabelling the kernel built so far.  Break that relabel alone: the
    # laws whose diagrams fold one fail.
    def lossy_relabel(f, fn, cod):
        k = K.relabel(f, fn, cod)
        return K.SubKernel(
            k.dom, k.cod, {x: dict(list(r.items())[:-1]) for x, r in k.rows.items()}
        )

    lossy = SimpleNamespace(**{**vars(K), "relabel": lossy_relabel})
    monkeypatch.setattr(D, "K", lossy)
    comonoid = laws.check_law("comonoid", 20, 7)
    assert comonoid.failures == 20
    assert comonoid.counterexample["equation"] == "copy;(discard (x) id) = id"
    assert laws.check_law("swap-naturality", 20, 7).failures > 0
    assert laws.check_law("frobenius", 20, 7).failures > 0
    # Kernel operations called directly do not reach evaluate.
    assert laws.check_law("splitting", 20, 7).failures == 0


def test_random_cproc_term_deterministic():
    t1 = laws.random_cproc_term(9, depth=5)
    t2 = laws.random_cproc_term(9, depth=5)
    assert t1 == t2


# -- random decision problems ------------------------------------------------


def test_random_problems_cover_both_solver_branches():
    infeasible = zero_mass_actions = 0
    for i in range(200):
        rng = laws._stable_rng("law", "solver-observe-agreement", 7, i)
        p = laws._rand_problem(rng)
        assert K.is_total(p.environment) and K.is_total(p.agent)
        assert len(p.actions.labels) <= 4
        assert len(p.utility_obj.factors[0].labels) <= 4
        try:
            table = edt.solve(p).table
        except NoFeasibleAction:
            infeasible += 1
            continue
        zero_mass_actions += sum(v.expected_utility is None for v in table)
    assert 0 < infeasible < 100
    assert zero_mass_actions > 0


def test_mutated_action_grouping_breaks_solver_law(monkeypatch):
    def by_utility(problem, joint):
        # Group by the first (utility) factor instead of the action factor.
        return K.bend(joint, 1)

    monkeypatch.setattr(edt, "_states_by_action", by_utility)
    report = laws.check_law("solver-observe-agreement", 40, 7)
    assert report.failures > 0
    cx = report.counterexample
    # The counterexample problem replays through the CLI problem schema.
    text = codec.to_text(cx["problem"])
    problem = codec.problem_from_json(json.loads(text))
    assert codec.to_text(codec.problem_to_json(problem)) == text
