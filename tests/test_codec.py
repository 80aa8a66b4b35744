"""Serialization: canonical form, round-trips, and schema validation."""

from __future__ import annotations

import copy
import json
import time
from fractions import Fraction
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from pmc import codec, edt, laws
from pmc import diagram as D
from pmc import kernel as K
from pmc.errors import (
    BadDensity,
    NegativeProbability,
    PmcError,
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
    # The other forms README "File formats" lists.
    assert codec.parse_fraction(" +1000/3\n") == Fraction(1000, 3)
    assert codec.parse_fraction("-0.25") == Fraction(-1, 4)
    assert codec.parse_fraction(".5") == codec.parse_fraction("5.") / 10


@pytest.mark.parametrize(
    "text",
    # Fraction() reads the exponents, and "1e-10000000" alone took about
    # 13 s; it reads "1_000/3" from Python 3.11 and "1 / 2" from 3.12.
    ["1e-10000000", "1E5", "2.5e-1", "1e0", "1_000/3", "1 / 2", "1/ 2", "1/-2", ".", "+"]
    # Fraction() reads non-ASCII digits and whitespace too; the grammar
    # is ASCII only.
    + ["\u0663/\u0664", "\uff11/\uff12", "\xa01/2", "1/2\u2003"],
)
def test_strings_outside_the_rational_grammar_are_refused(text):
    start = time.perf_counter()
    with pytest.raises(SchemaError) as err:
        codec.parse_fraction(text)
    assert str(err.value) == f"not a rational: {text!r}"
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "text",
    # Fraction() spent about 0.25 s on the first before int() refused it.
    ["0." + "1" * 10**6, "1" * 4301, "1/" + "7" * 4301, "." + "3" * 4301, "2." + "3" * 4301],
)
def test_digit_runs_past_the_int_limit_are_refused_fast(text):
    start = time.perf_counter()
    with pytest.raises(SchemaError) as err:
        codec.parse_fraction(text)
    assert str(err.value) == f"not a rational: {text!r}"
    assert time.perf_counter() - start < 0.5


def test_digit_runs_up_to_the_int_limit_are_read():
    n = 10**4300 - 1
    assert codec.parse_fraction("9" * 4300) == n
    assert codec.parse_fraction(f"1/{n}") == Fraction(1, n)
    assert codec.parse_fraction("0." + "9" * 4300) == Fraction(n, n + 1)


def _newcomb_paying(value) -> edt.DecisionProblem:
    """edt.newcomb() with the value of its "1000" label replaced."""
    p = edt.newcomb()
    utilities = {**p.utilities, "1000": value}
    return edt.DecisionProblem(
        p.name, p.actions, p.environment, p.agent, p.consequence, utilities
    )


def _density(value) -> K.SubKernel:
    return laws.random_kernel(3, BO, BO, value)


@pytest.mark.parametrize("read", [_newcomb_paying, _density])
@pytest.mark.parametrize("value", [0.1, True, "x", "1e-10000000"])
def test_utilities_and_densities_are_read_by_parse_fraction(read, value):
    # Fraction() would read 0.1 as 3602879701896397/36028797018963968
    # and True as 1, raise a bare ValueError on "x", and spend seconds
    # on the exponent.
    start = time.perf_counter()
    with pytest.raises(SchemaError) as err:
        read(value)
    assert str(err.value) == f"not a rational: {value!r}"
    assert time.perf_counter() - start < 0.5


def test_utilities_and_densities_are_read_exactly():
    for value, exact in [("1/3", Fraction(1, 3)), (3, Fraction(3))]:
        stored = _newcomb_paying(value).utilities["1000"]
        assert stored == exact and type(stored) is Fraction
    assert edt.solve(_newcomb_paying("1/3")).table == edt.solve(
        _newcomb_paying(Fraction(1, 3))
    ).table
    for value, exact in [("1/3", Fraction(1, 3)), (1, Fraction(1))]:
        assert _density(value) == _density(exact)
    with pytest.raises(BadDensity):
        _density("3/2")
    q = Fraction(2, 3)
    assert codec.parse_fraction(q) is q


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
    pieces: list[str] = []
    codec.write_text(payload, pieces.append)
    assert "".join(pieces) == codec.to_text(payload)


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
    doc = json.loads(codec.to_text(codec.kernel_to_json(f)))
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
    doc = json.loads(codec.to_text(codec.kernel_to_json(f)))
    assert [r["in"] for r in doc["rows"]] == [["f"], ["t"]]
    # Entries within a row are sorted too, not written in insertion order.
    g = K.make_kernel(BO, BO, {"t": {"t": Fraction(1, 3), "f": Fraction(2, 3)}})
    [row] = json.loads(codec.to_text(codec.kernel_to_json(g)))["rows"]
    assert [e["val"] for e in row["out"]] == [["f"], ["t"]]


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


# -- kernel_from_json against the per-entry reference -----------------------


def reference_kernel_from_json(doc, where="kernel"):
    """kernel_from_json without memoised parsing: every entry's
    probability is parsed, sign-checked and label-checked on its own,
    then every row's mass is summed in Fractions."""
    dom = codec.obj_from_json(codec._require(doc, "dom", list, where), where + ".dom")
    cod = codec.obj_from_json(codec._require(doc, "cod", list, where), where + ".cod")
    rows_doc = codec._require(doc, "rows", list, where)
    table = {}
    for i, row_doc in enumerate(rows_doc):
        rw = f"{where}.rows[{i}]"
        x = tuple(codec._str_list(codec._require(row_doc, "in", list, rw), rw + ".in"))
        if x in table:
            raise SchemaError(f"{rw}: duplicate input {x!r}")
        row = {}
        for j, out_doc in enumerate(codec._require(row_doc, "out", list, rw)):
            ow = f"{rw}.out[{j}]"
            val = codec._require(out_doc, "val", list, ow)
            y = tuple(codec._str_list(val, ow + ".val"))
            p = codec.parse_fraction(codec._require(out_doc, "p", (str, int), ow))
            if p < 0:
                raise NegativeProbability(
                    f"entry ({x!r} -> {y!r}) has negative probability {p}"
                )
            row[y] = row[y] + p if y in row else p
        table[x] = row
    rows = {}
    for x_raw, row_raw in table.items():
        x = K._as_outcome(x_raw, dom, "input")
        acc = {}
        for y_raw, p in row_raw.items():
            y = K._as_outcome(y_raw, cod, "output")
            if p:
                acc[y] = p
        mass = sum(acc.values(), Fraction(0))
        if mass > 1:
            raise RowMassExceedsOne(f"row at input {x!r} has mass {mass} > 1")
        if acc:
            rows[x] = acc
    return K.SubKernel(dom, cod, rows)


_LABELS = ("a", "b", "c")
# Probabilities a valid document may hold; several strings name one value.
_GOOD_P = ["0", "-0", "1/8", "1/4", "2/8", " 1/4", "0.25", "1/3", "2/6", "1/2", "1"]
_GOOD_P += [0, 1]
# Negative values first: _repeat_output draws its repeats from them.
_BAD_P = ["-1/2", "-1/3", -1, "3/2", 2, True, False, None, 0.5, [], "x", "1/0"]
_BAD_P += ["1e-1", "1/2/3"]


def _row_docs(doc):
    rows = doc.get("rows") if isinstance(doc, dict) else None
    return [r for r in rows if isinstance(r, dict)] if isinstance(rows, list) else []


def _out_docs(doc):
    return [
        out
        for r in _row_docs(doc)
        if isinstance(r.get("out"), list)
        for out in r["out"]
        if isinstance(out, dict)
    ]


def _pick(draw, items):
    return items[draw(st.integers(0, len(items) - 1))] if items else None


def _set_p(draw, doc, values):
    out = _pick(draw, _out_docs(doc))
    if out is not None:
        out["p"] = draw(st.sampled_from(values))


def _repeat_output(draw, doc):
    rows = [r for r in _row_docs(doc) if isinstance(r.get("out"), list)]
    row = _pick(draw, [r for r in rows if r["out"]])
    if row is not None:
        out = dict(_pick(draw, row["out"]))
        out["p"] = draw(st.sampled_from(_GOOD_P + _BAD_P[:3]))
        row["out"].insert(draw(st.integers(0, len(row["out"]))), out)


def _relabel(draw, doc, key, pick):
    holder = _pick(draw, pick(doc))
    if holder is None or not isinstance(holder.get(key), list):
        return
    labels = holder[key]
    how = draw(st.sampled_from(["unknown", "longer", "shorter", "not-a-str"]))
    if how == "unknown" and labels:
        labels[draw(st.integers(0, len(labels) - 1))] = "zz"
    elif how == "longer":
        labels.append(draw(st.sampled_from(_LABELS)))
    elif how == "shorter" and labels:
        labels.pop()
    elif how == "not-a-str" and labels:
        labels[0] = draw(st.sampled_from([1, None, ["a"]]))


def _drop_key(draw, doc):
    holders = [doc] + _row_docs(doc) + _out_docs(doc)
    holder = _pick(draw, holders)
    if holder:
        del holder[draw(st.sampled_from(sorted(holder)))]


def _val_not_a_list(draw, doc):
    out = _pick(draw, _out_docs(doc))
    if out is not None:
        out["val"] = draw(st.sampled_from(["a", 3, {"a": 1}, None]))


def _duplicate_input(draw, doc):
    row = _pick(draw, _row_docs(doc))
    if row is not None:
        doc["rows"].append({"in": list(row.get("in", [])), "out": []})


def _mass_above_one(draw, doc):
    row = _pick(draw, [r for r in _row_docs(doc) if isinstance(r.get("out"), list)])
    vals = [out.get("val") for out in row["out"] if isinstance(out, dict)] if row else []
    if vals and isinstance(vals[0], list):
        row["out"].append({"val": list(vals[0]), "p": "1"})


_MUTATIONS = (
    lambda draw, doc: _set_p(draw, doc, _BAD_P),
    _repeat_output,
    lambda draw, doc: _relabel(draw, doc, "val", _out_docs),
    lambda draw, doc: _relabel(draw, doc, "in", _row_docs),
    _drop_key,
    _val_not_a_list,
    _duplicate_input,
    _mass_above_one,
)


@st.composite
def kernel_docs(draw):
    def alphabet(name):
        return {"name": name, "labels": list(_LABELS[: draw(st.integers(1, 3))])}

    dom = [alphabet(f"D{i}") for i in range(draw(st.integers(0, 2)))]
    cod = [alphabet(f"C{i}") for i in range(draw(st.integers(1, 2)))]
    outputs = list(product(*(a["labels"] for a in cod)))
    rows = []
    for x in product(*(a["labels"] for a in dom)):
        if draw(st.booleans()):
            n = draw(st.integers(0, 4))
            rows.append(
                {
                    "in": list(x),
                    "out": [
                        {
                            "val": list(draw(st.sampled_from(outputs))),
                            "p": draw(st.sampled_from(_GOOD_P)),
                        }
                        for _ in range(n)
                    ],
                }
            )
    doc = {"dom": dom, "cod": cod, "rows": rows}
    for mutate in draw(st.lists(st.sampled_from(_MUTATIONS), max_size=3)):
        mutate(draw, doc)
    return doc


def _outcome(parse, doc):
    """A parsed kernel with its row and entry order, or the error raised."""
    try:
        k = parse(copy.deepcopy(doc))
    except Exception as exc:  # compared, not swallowed: see the assert
        return ("raised", type(exc), str(exc))
    rows = [(x, list(row.items())) for x, row in k.rows.items()]
    assert all(type(q) is Fraction for _, row in rows for _, q in row)
    return ("kernel", k.dom, k.cod, rows)


def _one_row(*outs):
    return {
        "dom": [],
        "cod": [{"name": "b", "labels": ["t", "f"]}],
        "rows": [{"in": [], "out": [{"val": [y], "p": p} for y, p in outs]}],
    }


@given(kernel_docs())
@example(_one_row(("t", 1), ("t", True)))
@example(_one_row(("t", "1/2"), ("f", "1/2"), ("t", "1/2")))
@example(_one_row(("t", "-1/2"), ("t", "1/2"), ("f", "1/2")))
@example(_one_row(("t", "-1/4"), ("t", "1/2"), ("f", "3/4")))
@example(_one_row(("f", "0"), ("t", "1/3"), ("f", "1/3"), ("zz", "0")))
def test_kernel_from_json_matches_per_entry_reference(doc):
    assert _outcome(codec.kernel_from_json, doc) == _outcome(
        reference_kernel_from_json, doc
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
    assert term == D.Compose(D.Id(BO), D.Copy(BO), D.Swap(BO, BO))
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
    doc = json.loads(codec.to_text(codec.env_to_json(alphabets, kernels)))
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
    payload = {"kernels": {"coin": codec.kernel_to_json(coin())}}
    doc = json.loads(codec.to_text(payload))
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
    doc = json.loads(codec.to_text(codec.problem_to_json(edt.newcomb())))
    del doc["utilities"]["1000"]
    with pytest.raises(UnknownLabel):
        codec.problem_from_json(doc)


# -- parsers on hostile documents -------------------------------------------

_KEYS = ["op", "terms", "name", "obj", "left", "right", "point", "alphabets"]
_KEYS += ["kernels", "labels", "dom", "cod", "rows", "in", "out", "val", "p"]
_KEYS += ["actions", "environment", "agent", "consequence", "utilities"]
_WORDS = _KEYS + ["gen", "id", "copy", "discard", "compare", "swap", "observe"]
_WORDS += ["compose", "tensor", "bool", "coin", "t", "f", "1/2", "-1", ""]
_json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2, 2),
        st.floats(),
        st.sampled_from(_WORDS),
        st.text(max_size=3),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(
            st.one_of(st.sampled_from(_KEYS), st.text(max_size=3)), inner, max_size=4
        ),
    ),
    max_leaves=20,
)


def _plain(payload):
    return json.loads(codec.to_text(payload))


_ENV = _plain(
    codec.env_to_json(
        {"bool": B}, {"coin": coin(), "flip": K.swap(BO, BO), "keep": K.copy(BO)}
    )
)
_ALPHABETS, _KERNELS = codec.env_from_json(_ENV)
_TERM = codec.term_to_json(
    D.Compose(
        D.Gen("coin", coin()),
        D.Copy(BO),
        D.Tensor(D.Id(BO), D.Observe(BO, ("t",)), D.Discard(UNIT)),
        D.Compose(D.Copy(BO), D.Swap(BO, BO), D.Compare(BO)),
    )
)
_PROBLEM = _plain(codec.problem_to_json(edt.newcomb()))


def _spots(doc):
    """Every (container, key) pair inside doc."""
    spots, todo = [], [doc]
    while todo:
        node = todo.pop()
        if isinstance(node, dict):
            items = list(node.items())
        elif isinstance(node, list):
            items = list(enumerate(node))
        else:
            continue
        for key, value in items:
            spots.append((node, key))
            todo.append(value)
    return spots


@st.composite
def mutated(draw, valid):
    """valid with one to three parts replaced by random values or by
    copies of other parts, or deleted."""
    doc = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        spots = _spots(doc)
        if not spots:
            break
        node, key = spots[draw(st.integers(0, len(spots) - 1))]
        how = draw(st.sampled_from(["replace", "graft", "delete"]))
        if how == "replace":
            node[key] = draw(_json_values)
        elif how == "graft":
            other, at = spots[draw(st.integers(0, len(spots) - 1))]
            node[key] = copy.deepcopy(other[at])
        else:
            del node[key]
    return doc


def _returns_or_refuses(parse, doc):
    """parse(doc) may return or raise a PmcError; any other exception
    escapes and fails the test."""
    try:
        parse(doc)
    except PmcError:
        pass


def _term_and_type(doc):
    D.infer_type(codec.term_from_json(doc, _ALPHABETS, _KERNELS))


@given(st.one_of(_json_values, mutated(_TERM)))
def test_term_parser_returns_or_refuses(doc):
    _returns_or_refuses(_term_and_type, doc)


@given(st.one_of(_json_values, mutated(_ENV)))
@example({"alphabets": 5})
def test_env_parser_returns_or_refuses(doc):
    _returns_or_refuses(codec.env_from_json, doc)


@given(st.one_of(_json_values, mutated(_PROBLEM)))
def test_problem_parser_returns_or_refuses(doc):
    _returns_or_refuses(codec.problem_from_json, doc)


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
