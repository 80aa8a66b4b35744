"""Canonical JSON formats for kernels, diagrams, problems, and reports.

Emission is canonical — factors in declared order, rows and outputs in
lexicographic label order, rationals as reduced "num/den" (plain
integers allowed) — so emit -> parse -> emit is byte-identical.

A payload holds a SubKernel as itself: write_text (and to_text, which
joins its pieces) writes it as its JSON object straight from the
stored rows of the kernel's factors (a deferred product's, or the
kernel's own), with no payload tree in between, and kernel_to_json(k)
is k.  The parsers read JSON documents, never a kernel.  Each label's
quoted text is made once per kernel, from the labels its domain and
codomain declare.  Where every label of the domain (or codomain) is
plain, json writes it as itself in quotes, so an outcome's list is its
bare labels joined in one call between fixed quotes and indentation:
the same bytes, with no lookup per label.

Reading a kernel checks the JSON shape of the whole document first.
Each row and entry passes exact-type tests inline; only a part that
fails a test is read again by _require and _str_list, which hold every
schema message and build its location.  The rows, each entry's
probability as the document holds it, then go to make_kernel's walk
(kernel._checked_kernel), which checks row by row each entry's labels,
then its rational, then its sign, then the row's mass.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator, Mapping
from fractions import Fraction
from math import gcd
from typing import Any

from . import diagram as D
from . import edt as E
from .errors import SchemaError
from .kernel import Alphabet, Obj, SubKernel, _checked_kernel, parse_fraction


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
    elif isinstance(value, SubKernel):  # a deferred product is a subclass
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
    indentation nl, written from its factors' stored integer rows with
    fixed templates.  A kernel that stores its rows is its own one
    factor; a deferred product (kernel.tensor) is written from its
    factors, and its rows are never built.

    Rows and entries go out in sorted order.  Every factor's outcomes
    have one length, so a product's sorted rows are its two balanced
    halves' sorted rows, nested, and so are each row's entries: the
    right half is listed once (see _row_texts), the left streamed, and
    each entry n0 * n1 / (D0 * D1) of a pair of rows written reduced.
    One factor is written in one loop over its sorted rows, each entry
    n / D reduced as it goes.
    """
    i1, i2, i3, i4, i5 = (nl + "  " * n for n in range(1, 6))
    write("{" + i1 + '"dom": ')
    _write(obj_to_json(k.dom), i1, write)
    write("," + i1 + '"cod": ')
    _write(obj_to_json(k.cod), i1, write)
    factors = [(f._rows, f.dom, f.cod) for f in k._factors]
    if not all(rows for rows, _, _ in factors):
        write("," + i1 + '"rows": []' + nl + "}")
        return
    ins = _label_list(k.dom, i3)
    vals = _label_list(k.cod, i5)
    # A row is {"in": [x...], "out": [{"val": [y...], "p": p}, ...]}.
    row_open = "{" + i3 + '"in": ' + ins[0]
    row_out = ins[2] + "," + i3 + '"out": [' + i4
    val_open = "{" + i5 + '"val": ' + vals[0]
    p_open = vals[2] + "," + i5 + '"p": "'
    p_close = '"' + i4 + "}"
    row_close = i3 + "]" + i2 + "}"
    entry_sep = "," + i4
    sep = "," + i1 + '"rows": [' + i2
    if len(factors) == 1:
        rows = factors[0][0]
        in_sep, in_body = ins[1], ins[3]
        val_sep, val_body = vals[1], vals[3]
        for x in sorted(rows):
            den, row = rows[x]
            entries = []
            for y in sorted(row) if len(row) > 1 else row:
                n = row[y]
                c = gcd(n, den)
                entries.append(
                    f"{val_open}{val_sep.join(y if val_body is None else map(val_body, y))}"
                    f"{p_open}{n // c if c == den else f'{n // c}/{den // c}'}{p_close}"
                )
            write(
                f"{sep}{row_open}{in_sep.join(x if in_body is None else map(in_body, x))}"
                f"{row_out}{entry_sep.join(entries)}{row_close}"
            )
            sep = "," + i2
    else:
        cut = (len(factors) + 1) // 2
        in_join, val_join = _joins(ins, vals, factors[:cut], factors[cut:])
        rights = list(
            _row_texts(factors[cut:], ins, in_join, row_out, vals, val_join, p_open)
        )
        for x0, e0 in _row_texts(factors[:cut], ins, row_open, "", vals, val_open, ""):
            for x1, e1 in rights:
                entries = []
                for y0, n0, d0 in e0:
                    for y1, n1, d1 in e1:
                        n, d = n0 * n1, d0 * d1
                        c = gcd(n, d)
                        entries.append(
                            f"{y0}{y1}{n // c if c == d else f'{n // c}/{d // c}'}{p_close}"
                        )
                write(f"{sep}{x0}{x1}{entry_sep.join(entries)}{row_close}")
                sep = "," + i2
    write(i1 + "]" + nl + "}")


# One factor of a kernel being written: its stored rows, dom and cod.
_Factor = tuple[Mapping[tuple, tuple[int, Mapping[tuple, int]]], Obj, Obj]


def _joins(
    ins: tuple, vals: tuple, left: list[_Factor], right: list[_Factor]
) -> tuple[str, str]:
    """The separators that join the label lists of left's and right's
    dom (ins) and cod (vals) outcomes: _label_list's separator, or none
    where either side's outcomes are empty."""
    return tuple(
        labels[1]
        if any(f[at].factors for f in left) and any(f[at].factors for f in right)
        else ""
        for labels, at in ((ins, 1), (vals, 2))
    )


def _row_texts(
    factors: list[_Factor],
    ins: tuple, in_pre: str, in_post: str,
    vals: tuple, val_pre: str, val_post: str,
) -> Iterator[tuple[str, list]]:
    """The rows of the product of factors, sorted, each as (in text,
    entries), its entries sorted.  A row's in text is in_pre, its labels
    joined as ins = _label_list(dom) joins them, then in_post; an
    entry is (val text, n, D), its value n / D not reduced, its val
    text val_pre, its labels, val_post.  Two or more factors are the
    nested product of two balanced halves, the right half listed once.
    A row of one entry has nothing to sort.
    """
    if len(factors) > 1:
        cut = (len(factors) + 1) // 2
        left, right = factors[:cut], factors[cut:]
        in_join, val_join = _joins(ins, vals, left, right)
        rights = list(_row_texts(right, ins, in_join, in_post, vals, val_join, val_post))
        for x0, e0 in _row_texts(left, ins, in_pre, "", vals, val_pre, ""):
            for x1, e1 in rights:
                yield x0 + x1, [
                    (y0 + y1, n0 * n1, d0 * d1)
                    for y0, n0, d0 in e0
                    for y1, n1, d1 in e1
                ]
        return
    rows = factors[0][0]
    in_sep, in_body = ins[1], ins[3]
    val_sep, val_body = vals[1], vals[3]
    for x in sorted(rows) if len(rows) > 1 else rows:
        den, row = rows[x]
        entries = []
        for y in sorted(row) if len(row) > 1 else row:
            t = val_sep.join(y if val_body is None else map(val_body, y))
            entries.append((val_pre + t + val_post, row[y], den))
        yield (
            in_pre + in_sep.join(x if in_body is None else map(in_body, x)) + in_post,
            entries,
        )


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
    # Each distinct output label tuple is tested once per document.
    labelled: set[tuple] = set()
    rows: dict[tuple, list] = {}
    # Exact-type tests pass on every well-formed row and entry.  Where
    # one fails, the part is read again through _require and _str_list,
    # which raise its fault at its location, or accept it (an int "p").
    for i, row_doc in enumerate(_require(doc, "rows", list, where)):
        xs = row_doc.get("in") if type(row_doc) is dict else None
        if type(xs) is not list or not all(type(v) is str for v in xs):
            rw = f"{where}.rows[{i}]"
            xs = _str_list(_require(row_doc, "in", list, rw), rw + ".in")
        x = tuple(xs)
        if x in rows:
            raise SchemaError(f"{where}.rows[{i}]: duplicate input {x!r}")
        outs = row_doc.get("out")
        if type(outs) is not list:
            outs = _require(row_doc, "out", list, f"{where}.rows[{i}]")
        entries = rows[x] = []
        for j, out_doc in enumerate(outs):
            if type(out_doc) is dict:
                val, p = out_doc.get("val"), out_doc.get("p")
            else:
                val = p = None
            y = tuple(val) if type(val) is list else None
            try:
                known = y in labelled
            except TypeError:  # an unhashable label, so not all are str
                known = False
            if not known and y is not None and all(type(v) is str for v in y):
                labelled.add(y)
                known = True
            if not known or type(p) is not str:
                ow = f"{where}.rows[{i}].out[{j}]"
                val = _str_list(_require(out_doc, "val", list, ow), ow + ".val")
                p = _require(out_doc, "p", (str, int), ow)
                y = tuple(val)
            entries.append((y, p))
    return _checked_kernel(dom, cod, rows.items())


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


# Each wiring op's node class, and the JSON keys of the node's fields in
# order: objects, as lists of alphabet names, and an observed point.
_WIRING_OPS = {
    "id": (D.Id, ("obj",)),
    "copy": (D.Copy, ("obj",)),
    "discard": (D.Discard, ("obj",)),
    "compare": (D.Compare, ("obj",)),
    "swap": (D.Swap, ("left", "right")),
    "observe": (D.Observe, ("obj", "point")),
}
_WIRING_OP_OF = {cls: op for op, (cls, _) in _WIRING_OPS.items()}


def term_to_json(term: D.Term) -> dict:
    match term:
        case D.Gen(name, _):
            return {"op": "gen", "name": name}
        case D.Compose(terms):
            return {"op": "compose", "terms": [term_to_json(t) for t in terms]}
        case D.Tensor(terms):
            return {"op": "tensor", "terms": [term_to_json(t) for t in terms]}
    op = _WIRING_OP_OF.get(type(term))
    if op is None:
        raise SchemaError(f"not a term: {term!r}")
    doc = {"op": op}
    for key in _WIRING_OPS[op][1]:
        value = getattr(term, key)
        doc[key] = list(value) if key == "point" else _obj_names(value)
    return doc


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
    if op in _WIRING_OPS:
        node, keys = _WIRING_OPS[op]
        fields = []
        for key in keys:
            value, at = _require(doc, key, list, where), f"{where}.{key}"
            fields.append(
                tuple(_str_list(value, at))
                if key == "point"
                else _resolve_obj(value, alphabets, at)
            )
        return node(*fields)
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
