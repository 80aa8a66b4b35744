"""Kernels in payloads: a payload holds a SubKernel as itself, the
writer against json.dumps, and the parsers' refusal of a kernel."""

from __future__ import annotations

import json
from fractions import Fraction
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from conftest import kernels
from hypothesis import example, given

from pmc import codec, edt, laws
from pmc import kernel as K
from pmc.errors import SchemaError
from pmc.kernel import Alphabet, UNIT, obj

# Labels that json escapes: quotes, backslash, control characters and
# non-ASCII text.  conftest's alphabets use a, b, c and d.
_AWKWARD = {"a": 'q"', "b": "\\", "c": "\x01\n", "d": "é☃"}
_SAME = {x: x for x in "abcd"}
B = Alphabet("bool", ("t", "f"))
S = Alphabet("s", ('q"', "\\", "\x01\n", "é☃"))
# Plain labels that look unusual: json writes each as itself in quotes.
ODD = Alphabet("odd", ("", "/", " ", "'"))
# A plain label first, then two that json escapes: DEL and non-ASCII.
ESC = Alphabet("esc", ("ok", "\x7f", "é"))


def _relabel(k: K.SubKernel, dom: bool = True, cod: bool = True) -> K.SubKernel:
    """k with the labels of its domain, its codomain or both made awkward."""

    def alpha(o: K.Obj, names: dict) -> K.Obj:
        return K.Obj(
            tuple(Alphabet(a.name, tuple(map(names.get, a.labels))) for a in o.factors)
        )

    ins = _AWKWARD if dom else _SAME
    outs = _AWKWARD if cod else _SAME
    return K.make_kernel(
        alpha(k.dom, ins),
        alpha(k.cod, outs),
        {
            tuple(map(ins.get, x)): {tuple(map(outs.get, y)): p for y, p in row.items()}
            for x, row in k.rows.items()
        },
    )


def _plain(k: K.SubKernel) -> dict:
    """The kernel's JSON object built eagerly, as kernel_to_json once did."""
    return {
        "dom": codec.obj_to_json(k.dom),
        "cod": codec.obj_to_json(k.cod),
        "rows": [
            {
                "in": list(x),
                "out": [
                    {"val": list(y), "p": codec.format_fraction(k.rows[x][y])}
                    for y in sorted(k.rows[x])
                ],
            }
            for x in sorted(k.rows)
        ],
    }


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


_EXAMPLES = [
    # A unit domain, and a unit codomain.
    K.make_kernel(UNIT, obj(B), {(): {"t": Fraction(1, 3), "f": Fraction(1, 2)}}),
    K.make_kernel(obj(B), UNIT, {"t": {(): Fraction(2, 3)}, "f": {(): 1}}),
    # The kernel that always fails.
    K.make_kernel(obj(B), obj(B, B), {}),
    # Whole-number entries only.
    K.make_kernel(obj(B), obj(B), {"t": {"f": 1}, "f": {"f": 1}}),
    K.make_kernel(UNIT, UNIT, {(): {(): 1}}),
    # Labels that need escaping, in both directions.
    K.make_kernel(
        obj(S), obj(S, B), {'q"': {("\\", "t"): Fraction(1, 4)}, "é☃": {("\x01\n", "f"): 1}}
    ),
    # A plain domain with a codomain whose second factor is awkward, and
    # the reverse; rows of two entries, inserted out of order.
    K.make_kernel(
        obj(B),
        obj(B, S),
        {"t": {("t", "é☃"): Fraction(1, 3), ("f", 'q"'): Fraction(2, 3)}, "f": {("f", "\\"): 1}},
    ),
    K.make_kernel(
        obj(S, B), obj(B), {("\x01\n", "t"): {"t": Fraction(1, 5), "f": Fraction(1, 5)}}
    ),
    # Unusual plain labels on both sides.
    K.make_kernel(
        obj(ODD), obj(ODD, ODD), {"'": {(" ", ""): Fraction(1, 2), ("/", "'"): Fraction(1, 2)}}
    ),
    # Escaped labels behind a plain one in the same alphabet, both sides.
    K.make_kernel(
        obj(ESC), obj(ODD, ESC), {"é": {("", "\x7f"): Fraction(3, 4)}, "ok": {("/", "ok"): 1}}
    ),
]


@given(
    st.one_of(
        kernels(),
        kernels().map(_relabel),
        kernels().map(lambda k: _relabel(k, cod=False)),
        kernels().map(lambda k: _relabel(k, dom=False)),
    )
)
@example(_EXAMPLES[0])
@example(_EXAMPLES[1])
@example(_EXAMPLES[2])
@example(_EXAMPLES[3])
@example(_EXAMPLES[4])
@example(_EXAMPLES[5])
@example(_EXAMPLES[6])
@example(_EXAMPLES[7])
@example(_EXAMPLES[8])
@example(_EXAMPLES[9])
def test_writer_matches_json_dumps_at_every_depth(k):
    plain = _plain(k)
    assert codec.to_text(codec.kernel_to_json(k)) == _dumps(plain)
    # A payload holds a kernel as itself, at any depth.
    assert codec.kernel_to_json(k) is k
    assert codec.to_text(k) == _dumps(plain)
    assert codec.to_text({"k": k, "nested": [k, {"again": (k,)}]}) == _dumps(
        {"k": plain, "nested": [plain, {"again": [plain]}]}
    )

    names = {a.name: a for a in k.dom.factors + k.cod.factors}
    env = codec.env_to_json(names, {"k": k, "again": k})
    assert codec.to_text(env) == _dumps(
        {"alphabets": env["alphabets"], "kernels": {"again": plain, "k": plain}}
    )

    # problem_to_json only reads the fields, so k can stand for the
    # environment and the agent here.
    newcomb = edt.newcomb()
    problem = codec.problem_to_json(
        SimpleNamespace(**{**vars(newcomb), "environment": k, "agent": k})
    )
    assert codec.to_text(problem) == _dumps(
        {
            **problem,
            "environment": plain,
            "agent": plain,
            "consequence": _plain(newcomb.consequence),
        }
    )

    counterexample = laws._mismatch("k = k", lhs=k, rhs=k, at=("x",))
    report = laws.Report("law", 2, 1, 1, {"case": 1, **counterexample})
    expected = {"case": 1, "equation": "k = k", "lhs": plain, "rhs": plain, "at": ["x"]}
    assert codec.report_to_text(report) == (
        "law: FAIL (1/2 failing)\ncounterexample: " + _dumps(expected)
    )
    assert codec.to_text([codec.report_to_json(report)]) == _dumps(
        [{"law": "law", "instances": 2, "passes": 1, "failures": 1, "counterexample": expected}]
    )


@pytest.mark.parametrize(
    "at, plain",
    [
        (obj(B, B), True),
        (obj(ODD), True),
        (obj(B, ODD), True),
        (obj(S), False),
        (obj(ESC), False),
        (obj(B, ESC), False),
        (obj(ODD, ESC), False),
    ],
)
def test_label_lists_join_bare_labels_only_where_every_label_is_plain(at, plain):
    # The bare labels are joined as they are; body looks each label up,
    # so it refuses one that at does not declare.
    head, sep, tail, body = codec._label_list(at, "\n")
    assert head + sep.join(("zz", "t")) + tail == '[\n  "zz",\n  "t"\n]'
    if plain:
        assert body is None
    else:
        with pytest.raises(KeyError):
            body("zz")


def test_problems_round_trip_through_views():
    # problem_to_json's payload holds its kernels as they are; to_text
    # writes them and problem_from_json reads the text back.
    for build in edt.CORPUS.values():
        problem = build()
        doc = json.loads(codec.to_text(codec.problem_to_json(problem)))
        assert codec.problem_from_json(doc) == problem


def test_parsers_refuse_a_kernel_view():
    k = _EXAMPLES[0]
    with pytest.raises(SchemaError) as err:
        codec.kernel_from_json(codec.kernel_to_json(k))
    assert str(err.value) == "kernel: missing key 'dom'"

    with pytest.raises(SchemaError) as err:
        codec.problem_from_json(codec.problem_to_json(edt.newcomb()))
    assert str(err.value) == "problem.environment: expected dict, got SubKernel"

    coin = K.make_kernel(UNIT, obj(B), {(): {"t": Fraction(1, 2)}})
    with pytest.raises(SchemaError) as err:
        codec.env_from_json(codec.env_to_json({"bool": B}, {"coin": coin}))
    assert str(err.value) == "env.kernels[coin]: missing key 'dom'"
