"""Canonical JSON formats for kernels, diagrams, problems, and reports.

Emission is canonical — factors in declared order, rows and outputs in
lexicographic label order, rationals as reduced "num/den" (plain
integers allowed) — so emit -> parse -> emit is byte-identical.

A payload holds a SubKernel as itself: write_text (and to_text, which
joins its pieces) writes it as its JSON object straight from the
kernel's rows, with no payload tree in between, and kernel_to_json(k)
is k.  The parsers read JSON documents, never a kernel.  Each label's
quoted text is made once per kernel, from the labels its domain and
codomain declare.  Where every label of the domain (or codomain) is
plain, json writes it as itself in quotes, so an outcome's list is its
bare labels joined in one call between fixed quotes and indentation:
the same bytes, with no lookup per label.

Parsing a kernel checks the schema and every entry's sign for the whole
document first, parsing each distinct probability string once; then
make_kernel checks labels and row masses row by row, each distinct
output tuple once.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Mapping
from fractions import Fraction
from typing import Any

from . import diagram as D
from . import edt as E
from .errors import NegativeProbability, SchemaError
from .kernel import Alphabet, Obj, SubKernel, make_kernel, parse_fraction


def format_fraction(q: Fraction | int) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def to_text(payload: Any) -> str:
    """Render a JSON payload in the one true output style.

    The text is json.dumps's indent-2 text plus a newline, byte for
    byte, written directly because json's indent path is pure Python.
    Only the JSON subset pmc emits is accepted: dicts with str keys,
    lists, tuples, str, int, bool, None and SubKernel, which is written
    as its JSON object.  Anything else, floats and Fractions included,
    raises TypeError.
    """
    out: list[str] = []
    write_text(payload, out.append)
    return "".join(out)


def write_text(payload: Any, write: Callable[[str], Any]) -> None:
    """Write to_text(payload) piece by piece through write, so a large
    payload is never held as one string."""
    _write(payload, "\n", write)
    write("\n")


_quote = json.encoder.encode_basestring_ascii


def _write(value: Any, nl: str, write: Callable[[str], Any]) -> None:
    """Write value's indent-2 text through write; nl is a newline plus
    the indentation of the line value starts on."""
    kind = type(value)
    if kind is str:
        write(_quote(value))
    elif kind is dict:
        if not value:
            write("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"JSON object key must be str, not {key!r}")
            write(sep + _quote(key) + ": ")
            _write(item, inner, write)
            sep = "," + inner
        write(nl + "}")
    elif kind is SubKernel:
        _write_kernel(value, nl, write)
    elif kind is list or kind is tuple:
        if not value:
            write("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            write(sep)
            _write(item, inner, write)
            sep = "," + inner
        write(nl + "]")
    elif kind is int:
        write(repr(value))
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif value is None:
        write("null")
    else:
        raise TypeError(
            f"{kind.__name__} is not in the JSON subset pmc emits: {value!r}"
        )


def _label_list(
    at: Obj, nl: str
) -> tuple[str, str, str, Callable[[str], str] | None]:
    """(head, sep, tail, body) for the label lists of at's outcomes at
    indentation nl: an outcome y is written head + sep.join(labels) +
    tail, its labels being y itself when body is None, which is when
    every label of at is plain (_quote(x) is x in quotes), else
    map(body, y), body giving each label's quoted text without its
    quotes."""
    if not at.factors:
        return "[]", "", "", None
    inner = nl + "  "
    quoted = {x: _quote(x) for a in at.factors for x in a.labels}
    head = "[" + inner + '"'
    sep = '",' + inner + '"'
    tail = '"' + nl + "]"
    if all(q == '"' + x + '"' for x, q in quoted.items()):
        return head, sep, tail, None
    return head, sep, tail, {x: q[1:-1] for x, q in quoted.items()}.__getitem__


def _write_kernel(k: SubKernel, nl: str, write: Callable[[str], Any]) -> None:
    """_write for a SubKernel: the text of {"dom", "cod", "rows"} at
    indentation nl, written from k.rows with fixed templates.

    Rows and entries go out in sorted order; a row of one entry has
    nothing to sort.  Each "in" or "val" list is one join (see
    _label_list), of the bare labels when every label of k.dom or k.cod
    respectively is plain: quoting a plain label only adds the quotes
    that join places around it, so the text is _write's either way.
    """
    i1, i2, i3, i4, i5 = (nl + "  " * n for n in range(1, 6))
    write("{" + i1 + '"dom": ')
    _write(obj_to_json(k.dom), i1, write)
    write("," + i1 + '"cod": ')
    _write(obj_to_json(k.cod), i1, write)
    rows = k.rows
    if not rows:
        write("," + i1 + '"rows": []' + nl + "}")
        return
    in_head, in_sep, in_tail, in_body = _label_list(k.dom, i3)
    val_head, val_sep, val_tail, val_body = _label_list(k.cod, i5)
    # A row is {"in": [x...], "out": [{"val": [y...], "p": p}, ...]}.
    row_open = "{" + i3 + '"in": ' + in_head
    row_out = in_tail + "," + i3 + '"out": [' + i4
    row_close = i3 + "]" + i2 + "}"
    entry_sep = "," + i4
    val_open = "{" + i5 + '"val": ' + val_head
    p_open = val_tail + "," + i5 + '"p": "'
    p_close = '"' + i4 + "}"
    sep = "," + i1 + '"rows": [' + i2
    for x in sorted(rows):
        row = rows[x]
        entries = []
        for y in sorted(row) if len(row) > 1 else row:
            q = row[y]
            d = q.denominator
            entries.append(
                f"{val_open}{val_sep.join(y if val_body is None else map(val_body, y))}"
                f"{p_open}{q.numerator if d == 1 else f'{q.numerator}/{d}'}{p_close}"
            )
        write(
            f"{sep}{row_open}{in_sep.join(x if in_body is None else map(in_body, x))}"
            f"{row_out}{entry_sep.join(entries)}{row_close}"
        )
        sep = "," + i2
    write(i1 + "]" + nl + "}")


def _require(doc: Any, key: str, kind, where: str) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"{where}: missing key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        names = (
            "/".join(k.__name__ for k in kind)
            if isinstance(kind, tuple)
            else kind.__name__
        )
        raise SchemaError(
            f"{where}.{key}: expected {names}, got {type(value).__name__}"
        )
    return value


def _str_list(value: Any, where: str) -> list[str]:
    if not isinstance(value, list) or any(
        not isinstance(v, str) for v in value
    ):
        raise SchemaError(f"{where}: expected a list of strings")
    return value


# -- alphabets and objects --------------------------------------------------


def alphabet_to_json(a: Alphabet) -> dict:
    return {"name": a.name, "labels": list(a.labels)}


def alphabet_from_json(doc: Any, where: str = "alphabet") -> Alphabet:
    name = _require(doc, "name", str, where)
    labels = _str_list(_require(doc, "labels", list, where), where + ".labels")
    return Alphabet(name, tuple(labels))


def obj_to_json(o: Obj) -> list[dict]:
    return [alphabet_to_json(a) for a in o.factors]


def obj_from_json(doc: Any, where: str = "obj") -> Obj:
    if not isinstance(doc, list):
        raise SchemaError(f"{where}: expected a list of alphabets")
    return Obj(
        tuple(
            alphabet_from_json(a, f"{where}[{i}]") for i, a in enumerate(doc)
        )
    )


# -- kernels ----------------------------------------------------------------


def kernel_to_json(k: SubKernel) -> SubKernel:
    """k itself: a payload holds a kernel as it is (see to_text)."""
    return k


def kernel_from_json(doc: Any, where: str = "kernel") -> SubKernel:
    dom = obj_from_json(_require(doc, "dom", list, where), where + ".dom")
    cod = obj_from_json(_require(doc, "cod", list, where), where + ".cod")
    rows_doc = _require(doc, "rows", list, where)
    # Each distinct probability string is parsed once per document.
    # Only strings are memoised: as dict keys, True and 1 are one key.
    parsed: dict[str, Fraction] = {}
    table: dict = {}
    for i, row_doc in enumerate(rows_doc):
        rw = f"{where}.rows[{i}]"
        x = tuple(_str_list(_require(row_doc, "in", list, rw), rw + ".in"))
        if x in table:
            raise SchemaError(f"{rw}: duplicate input {x!r}")
        row: dict = {}
        for j, out_doc in enumerate(_require(row_doc, "out", list, rw)):
            ow = f"{rw}.out[{j}]"
            y = tuple(_str_list(_require(out_doc, "val", list, ow), ow + ".val"))
            value = _require(out_doc, "p", (str, int), ow)
            if type(value) is str:
                p = parsed.get(value)
                if p is None:
                    p = parsed[value] = parse_fraction(value)
            else:
                p = parse_fraction(value)
            if p.numerator < 0:
                # Checked before repeats are summed, which could cancel it.
                raise NegativeProbability(
                    f"entry ({x!r} -> {y!r}) has negative probability {p}"
                )
            row[y] = row[y] + p if y in row else p
        table[x] = row
    return make_kernel(dom, cod, table)


# -- environments and diagram terms ----------------------------------------


def env_to_json(
    alphabets: Mapping[str, Alphabet], kernels: Mapping[str, SubKernel]
) -> dict:
    return {
        "alphabets": [
            alphabet_to_json(alphabets[n]) for n in sorted(alphabets)
        ],
        "kernels": {n: kernels[n] for n in sorted(kernels)},
    }


def env_from_json(doc: Any) -> tuple[dict[str, Alphabet], dict[str, SubKernel]]:
    alphabets: dict[str, Alphabet] = {}

    def record(a: Alphabet) -> None:
        seen = alphabets.get(a.name)
        if seen is not None and seen != a:
            raise SchemaError(
                f"alphabet {a.name!r} declared twice with different labels"
            )
        alphabets[a.name] = a

    if not isinstance(doc, dict):
        raise SchemaError("env: expected an object")
    alphabets_doc = doc.get("alphabets", [])
    if not isinstance(alphabets_doc, list):
        raise SchemaError("env.alphabets: expected a list")
    for i, a_doc in enumerate(alphabets_doc):
        record(alphabet_from_json(a_doc, f"env.alphabets[{i}]"))
    kernels: dict[str, SubKernel] = {}
    kernels_doc = doc.get("kernels", {})
    if not isinstance(kernels_doc, dict):
        raise SchemaError("env.kernels: expected an object")
    for name, k_doc in kernels_doc.items():
        k = kernel_from_json(k_doc, f"env.kernels[{name}]")
        for a in k.dom.factors + k.cod.factors:
            record(a)
        kernels[name] = k
    return alphabets, kernels


def _obj_names(o: Obj) -> list[str]:
    return [a.name for a in o.factors]


def _resolve_obj(
    names: Any, alphabets: Mapping[str, Alphabet], where: str
) -> Obj:
    factors = []
    for n in _str_list(names, where):
        if n not in alphabets:
            raise SchemaError(f"{where}: unknown alphabet {n!r}")
        factors.append(alphabets[n])
    return Obj(tuple(factors))


def term_to_json(term: D.Term) -> dict:
    match term:
        case D.Gen(name, _):
            return {"op": "gen", "name": name}
        case D.Id(x):
            return {"op": "id", "obj": _obj_names(x)}
        case D.Copy(x):
            return {"op": "copy", "obj": _obj_names(x)}
        case D.Discard(x):
            return {"op": "discard", "obj": _obj_names(x)}
        case D.Compare(x):
            return {"op": "compare", "obj": _obj_names(x)}
        case D.Swap(x, y):
            return {"op": "swap", "left": _obj_names(x), "right": _obj_names(y)}
        case D.Observe(x, point):
            return {"op": "observe", "obj": _obj_names(x), "point": list(point)}
        case D.Compose(terms):
            return {"op": "compose", "terms": [term_to_json(t) for t in terms]}
        case D.Tensor(terms):
            return {"op": "tensor", "terms": [term_to_json(t) for t in terms]}
    raise SchemaError(f"not a term: {term!r}")


def term_from_json(
    doc: Any,
    alphabets: Mapping[str, Alphabet],
    kernels: Mapping[str, SubKernel],
    where: str = "diagram",
) -> D.Term:
    op = _require(doc, "op", str, where)
    if op == "gen":
        name = _require(doc, "name", str, where)
        if name not in kernels:
            raise SchemaError(f"{where}: unknown kernel {name!r}")
        return D.Gen(name, kernels[name])
    if op in ("id", "copy", "discard", "compare"):
        x = _resolve_obj(
            _require(doc, "obj", list, where), alphabets, where + ".obj"
        )
        return {
            "id": D.Id,
            "copy": D.Copy,
            "discard": D.Discard,
            "compare": D.Compare,
        }[op](x)
    if op == "swap":
        left = _resolve_obj(
            _require(doc, "left", list, where), alphabets, where + ".left"
        )
        right = _resolve_obj(
            _require(doc, "right", list, where), alphabets, where + ".right"
        )
        return D.Swap(left, right)
    if op == "observe":
        x = _resolve_obj(
            _require(doc, "obj", list, where), alphabets, where + ".obj"
        )
        point = _str_list(_require(doc, "point", list, where), where + ".point")
        return D.Observe(x, tuple(point))
    if op in ("compose", "tensor"):
        terms_doc = _require(doc, "terms", list, where)
        if not terms_doc:
            raise SchemaError(f"{where}: empty {op!r} term list")
        return (D.Compose if op == "compose" else D.Tensor)(
            *(
                term_from_json(t, alphabets, kernels, f"{where}.terms[{i}]")
                for i, t in enumerate(terms_doc)
            )
        )
    raise SchemaError(f"{where}: unknown op {op!r}")


# -- decision problems ------------------------------------------------------


def problem_to_json(p: E.DecisionProblem) -> dict:
    return {
        "name": p.name,
        "actions": alphabet_to_json(p.actions),
        "environment": p.environment,
        "agent": p.agent,
        "consequence": p.consequence,
        "utilities": {
            u: format_fraction(p.utilities[u])
            for u in p.consequence.cod.factors[0].labels
        },
    }


def problem_from_json(doc: Any) -> E.DecisionProblem:
    where = "problem"
    name = _require(doc, "name", str, where)
    actions = alphabet_from_json(
        _require(doc, "actions", dict, where), where + ".actions"
    )
    environment, agent, consequence = (
        kernel_from_json(_require(doc, key, dict, where), f"{where}.{key}")
        for key in ("environment", "agent", "consequence")
    )
    utilities = _require(doc, "utilities", dict, where)
    return E.DecisionProblem(
        name, actions, environment, agent, consequence, utilities
    )


# -- prescriptions ----------------------------------------------------------


def prescription_to_json(p: E.Prescription) -> dict:
    return {
        "problem": p.problem,
        "table": [
            {
                "action": v.action,
                "mass": format_fraction(v.mass),
                "expected_utility": (
                    None
                    if v.expected_utility is None
                    else format_fraction(v.expected_utility)
                ),
            }
            for v in p.table
        ],
        "prescribed": list(p.prescribed),
        "chosen": p.chosen,
    }


def prescription_to_tsv(p: E.Prescription) -> str:
    lines = []
    for v in p.table:
        eu = (
            "undef"
            if v.expected_utility is None
            else format_fraction(v.expected_utility)
        )
        lines.append(f"{v.action}\t{format_fraction(v.mass)}\t{eu}")
    lines.append(f"prescribed:\t{p.chosen}")
    return "\n".join(lines) + "\n"


# -- law reports ------------------------------------------------------------


def report_to_json(r) -> dict:
    """Serialize a laws.Report (duck-typed to avoid an import cycle)."""
    return {
        "law": r.law,
        "instances": r.instances,
        "passes": r.passes,
        "failures": r.failures,
        "counterexample": r.counterexample,
    }


def report_to_text(r) -> str:
    if r.failures == 0:
        return f"{r.law}: pass ({r.passes}/{r.instances})\n"
    head = f"{r.law}: FAIL ({r.failures}/{r.instances} failing)\n"
    return head + "counterexample: " + to_text(r.counterexample)
