"""Serialization: canonical form, round-trips, and schema validation."""

from __future__ import annotations

import json
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from pmc import codec, edt, laws
from pmc import diagram as D
from pmc import kernel as K
from pmc.errors import (
    NegativeProbability,
    RowMassExceedsOne,
    SchemaError,
    UnknownLabel,
)
from pmc.kernel import Alphabet, Obj, UNIT, obj, state

B = Alphabet("bool", ("t", "f"))
BO = obj(B)


# -- rationals ---------------------------------------------------------------


def test_fraction_formatting():
    assert codec.format_fraction(Fraction(0)) == "0"
    assert codec.format_fraction(Fraction(1)) == "1"
    assert codec.format_fraction(Fraction(3, 4)) == "3/4"
    assert codec.format_fraction(Fraction(-5, 2)) == "-5/2"
    assert codec.format_fraction(3) == "3"


def test_fraction_parsing():
    assert codec.parse_fraction("3/4") == Fraction(3, 4)
    assert codec.parse_fraction("1") == 1
    assert codec.parse_fraction(2) == 2
    with pytest.raises(SchemaError):
        codec.parse_fraction("one")
    with pytest.raises(SchemaError):
        codec.parse_fraction("1/0")
    with pytest.raises(SchemaError):
        codec.parse_fraction(True)
    with pytest.raises(SchemaError):
        codec.parse_fraction(None)


# -- the indent-2 writer ----------------------------------------------------

# Quotes, backslashes, control characters and non-ASCII text, among others.
_awkward = '"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2603\U0001d11e'
_texts = st.text(st.one_of(st.sampled_from(_awkward), st.characters()), max_size=6)
_payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(-(10**40), 10**40),
        _texts,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_texts, inner, max_size=4),
    ),
    max_leaves=24,
)


@given(_payloads)
@example({"": [], "q\"\\": {}, "\u00e9\n": [(), [-(2**70), [True, None]], ("x", 1)]})
@example(["a", "b\x01", "\u2603"])
def test_to_text_matches_json_dumps_indent_2(payload):
    assert codec.to_text(payload) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize(
    "payload", [1.5, {"p": [Fraction(1, 2)]}, {"rows": {1: "a"}}]
)
def test_to_text_rejects_values_outside_the_json_subset(payload):
    with pytest.raises(TypeError):
        codec.to_text(payload)


# -- kernels -----------------------------------------------------------------


def test_kernel_round_trip_preserves_value():
    f = K.make_kernel(
        BO, BO, {"t": {"t": Fraction(1, 2), "f": Fraction(1, 4)}, "f": {"f": 1}}
    )
    doc = codec.kernel_to_json(f)
    assert codec.kernel_from_json(doc) == f


def test_kernel_emission_is_canonical_and_stable():
    for seed in range(30):
        k = laws.random_kernel(
            seed, BO, obj(B, Alphabet("v", ("a", "b"))), Fraction(1, 2)
        )
        text = codec.to_text(codec.kernel_to_json(k))
        again = codec.to_text(
            codec.kernel_to_json(codec.kernel_from_json(json.loads(text)))
        )
        assert text == again


def test_kernel_rows_sorted_lexicographically():
    f = K.make_kernel(BO, BO, {"t": {"f": Fraction(1, 2)}, "f": {"t": 1}})
    doc = codec.kernel_to_json(f)
    assert [r["in"] for r in doc["rows"]] == [["f"], ["t"]]


def test_kernel_from_json_validates():
    bad_mass = {
        "dom": [{"name": "b", "labels": ["t", "f"]}],
        "cod": [],
        "rows": [{"in": ["t"], "out": [{"val": [], "p": "5/4"}]}],
    }
    with pytest.raises(RowMassExceedsOne):
        codec.kernel_from_json(bad_mass)
    bad_label = {
        "dom": [{"name": "b", "labels": ["t", "f"]}],
        "cod": [],
        "rows": [{"in": ["x"], "out": []}],
    }
    with pytest.raises(UnknownLabel):
        codec.kernel_from_json(bad_label)
    with pytest.raises(SchemaError):
        codec.kernel_from_json({"dom": [], "cod": []})
    dup = {
        "dom": [{"name": "b", "labels": ["t", "f"]}],
        "cod": [],
        "rows": [
            {"in": ["t"], "out": []},
            {"in": ["t"], "out": []},
        ],
    }
    with pytest.raises(SchemaError):
        codec.kernel_from_json(dup)


def test_duplicate_out_values_accumulate():
    doc = {
        "dom": [],
        "cod": [{"name": "b", "labels": ["t", "f"]}],
        "rows": [
            {
                "in": [],
                "out": [
                    {"val": ["t"], "p": "1/4"},
                    {"val": ["t"], "p": "1/4"},
                ],
            }
        ],
    }
    assert codec.kernel_from_json(doc).prob((), "t") == Fraction(1, 2)


@pytest.mark.parametrize(
    "entries",
    [
        [("t", "-1/2"), ("t", "1/2"), ("f", "1/2")],
        [("t", "-1/4"), ("t", "1/2"), ("f", "3/4")],
    ],
)
def test_negative_entry_is_not_cancelled_by_a_repeat(entries):
    doc = {
        "dom": [],
        "cod": [{"name": "b", "labels": ["t", "f"]}],
        "rows": [
            {"in": [], "out": [{"val": [y], "p": p} for y, p in entries]}
        ],
    }
    with pytest.raises(NegativeProbability) as err:
        codec.kernel_from_json(doc)
    assert str(err.value) == (
        f"entry (() -> ('t',)) has negative probability {entries[0][1]}"
    )


# -- terms and environments --------------------------------------------------


def coin():
    return state(BO, {"t": Fraction(1, 2), "f": Fraction(1, 2)})


def test_term_round_trip():
    term = D.Compose(
        D.Gen("coin", coin()),
        D.Compose(D.Copy(BO), D.Tensor(D.Id(BO), D.Observe(BO, ("t",)))),
    )
    doc = codec.term_to_json(term)
    alphabets = {"bool": B}
    kernels = {"coin": coin()}
    back = codec.term_from_json(doc, alphabets, kernels)
    assert D.evaluate(back) == D.evaluate(term)
    assert codec.term_to_json(back) == doc


def test_term_compose_list_folds_left():
    doc = {
        "op": "compose",
        "terms": [
            {"op": "id", "obj": ["bool"]},
            {"op": "copy", "obj": ["bool"]},
            {"op": "swap", "left": ["bool"], "right": ["bool"]},
        ],
    }
    term = codec.term_from_json(doc, {"bool": B}, {})
    assert D.infer_type(term) == (BO, BO.tensor(BO))
    assert codec.term_to_json(term) == doc


def test_term_unknown_references():
    with pytest.raises(SchemaError):
        codec.term_from_json({"op": "gen", "name": "nope"}, {}, {})
    with pytest.raises(SchemaError):
        codec.term_from_json({"op": "id", "obj": ["nope"]}, {}, {})
    with pytest.raises(SchemaError):
        codec.term_from_json({"op": "warp"}, {}, {})
    with pytest.raises(SchemaError):
        codec.term_from_json({"op": "compose", "terms": []}, {}, {})


def test_env_round_trip_and_conflicts():
    alphabets = {"bool": B}
    kernels = {"coin": coin()}
    doc = codec.env_to_json(alphabets, kernels)
    back_alpha, back_kernels = codec.env_from_json(doc)
    assert back_alpha == alphabets
    assert back_kernels == kernels
    clash = {
        "alphabets": [
            {"name": "bool", "labels": ["t", "f"]},
            {"name": "bool", "labels": ["x"]},
        ],
        "kernels": {},
    }
    with pytest.raises(SchemaError):
        codec.env_from_json(clash)


def test_env_collects_alphabets_from_kernels():
    doc = {"kernels": {"coin": codec.kernel_to_json(coin())}}
    alphabets, kernels = codec.env_from_json(doc)
    assert alphabets == {"bool": B}
    assert kernels["coin"] == coin()


# -- problems ----------------------------------------------------------------


def test_problem_round_trip_byte_identical():
    for build in edt.CORPUS.values():
        problem = build()
        text = codec.to_text(codec.problem_to_json(problem))
        again = codec.to_text(
            codec.problem_to_json(codec.problem_from_json(json.loads(text)))
        )
        assert text == again


def test_problem_from_json_runs_validation():
    doc = codec.problem_to_json(edt.newcomb())
    del doc["utilities"]["1000"]
    with pytest.raises(UnknownLabel):
        codec.problem_from_json(doc)


# -- prescriptions and reports ----------------------------------------------


def test_prescription_tsv_format():
    pres = edt.solve(edt.newcomb())
    tsv = codec.prescription_to_tsv(pres)
    assert tsv == (
        "one-box\t1/2\t1000\n"
        "two-box\t1/2\t1\n"
        "prescribed:\tone-box\n"
    )


def test_prescription_tsv_undefined_utility():
    actions = Alphabet("action", ("l", "r"))
    u = Alphabet("payout", ("win",))
    problem = edt.DecisionProblem(
        "pointy",
        actions,
        state(UNIT, {(): 1}),
        K.dirac(obj(actions), "l"),
        K.make_kernel(
            obj(actions), obj(u), {a: {"win": 1} for a in actions.labels}
        ),
        {"win": Fraction(1)},
    )
    tsv = codec.prescription_to_tsv(edt.solve(problem))
    assert "r\t0\tundef" in tsv


def test_report_text_and_json():
    report = laws.check_law("comonoid", 5, 7)
    assert codec.report_to_text(report) == "comonoid: pass (5/5)\n"
    doc = codec.report_to_json(report)
    assert doc == {
        "law": "comonoid",
        "instances": 5,
        "passes": 5,
        "failures": 0,
        "counterexample": None,
    }
    failing = laws.Report(
        "comonoid", 3, 2, 1, {"case": 0, "equation": "copy;swap = copy", "at": []}
    )
    assert codec.report_to_text(failing) == (
        "comonoid: FAIL (1/3 failing)\ncounterexample: "
        + json.dumps(failing.counterexample, indent=2)
        + "\n"
    )
