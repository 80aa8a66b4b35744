"""Expected outputs computed without pmc.

Each function takes the plain-data spec that inputs.py generated next
to a document and returns the exact text pmc must print for it, in the
canonical format the README defines: JSON with two-space indentation,
factors in declared order, rows and outputs sorted by label, rationals
as reduced "num/den" strings.  The methods differ from pmc's on
purpose: dense chains are an integer matrix product over one common
denominator, wide tensors are evaluated wire by wire, and decision
problems are solved by enumerating the joint distribution.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

NO_FEASIBLE_ACTION = "error: NoFeasibleAction\n"


def rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _reduced(num: int, den: int) -> str:
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _kernel_text(dom, cod, rows) -> str:
    """rows: input tuple -> {output tuple: rendered probability}, no zeros."""
    payload = {
        "dom": [{"name": a[0], "labels": list(a[1])} for a in dom],
        "cod": [{"name": a[0], "labels": list(a[1])} for a in cod],
        "rows": [
            {
                "in": list(x),
                "out": [{"val": list(y), "p": rows[x][y]} for y in sorted(rows[x])],
            }
            for x in sorted(rows)
            if rows[x]
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def dense_chain(chain) -> str:
    """g0 ; g1 ; ... as one integer product over a common denominator."""
    scaled, dens = [], []
    for mat in chain.matrices:
        den = lcm(*(q.denominator for row in mat for q in row))
        scaled.append([[q.numerator * (den // q.denominator) for q in row] for row in mat])
        dens.append(den)
    acc = scaled[0]
    for mat in scaled[1:]:
        cols = list(zip(*mat))
        acc = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in acc]
    den = prod(dens)
    first, last = chain.alphabets[0], chain.alphabets[-1]
    rows = {
        (first[1][r],): {(last[1][c],): _reduced(v, den) for c, v in enumerate(row) if v}
        for r, row in enumerate(acc)
    }
    return _kernel_text([first], [last], rows)


def wide_tensor(wide) -> str:
    """Tensor of id/copy/swap leaves and one deterministic generator."""
    dom, cod = [], []
    for leaf in wide.leaves:
        kind = leaf[0]
        if kind == "id":
            dom.append(leaf[1])
            cod.append(leaf[1])
        elif kind == "copy":
            dom.append(leaf[1])
            cod += [leaf[1], leaf[1]]
        elif kind == "swap":
            dom += [leaf[1], leaf[2]]
            cod += [leaf[2], leaf[1]]
        else:
            dom += leaf[1]
            cod += leaf[2]
    rows = {}
    for x in product(*(a[1] for a in dom)):
        y, i = [], 0
        for leaf in wide.leaves:
            kind = leaf[0]
            if kind == "id":
                y.append(x[i])
                i += 1
            elif kind == "copy":
                y += [x[i], x[i]]
                i += 1
            elif kind == "swap":
                y += [x[i + 1], x[i]]
                i += 2
            else:
                width = len(leaf[1])
                y += leaf[3][x[i : i + width]]
                i += width
        rows[x] = {tuple(y): "1"}
    return _kernel_text(dom, cod, rows)


def solve(problem) -> str:
    """The prescription table as `pmc solve` prints it (TSV), from the
    exact joint over (utility label, action) by enumeration."""
    n_cond = len(problem.condition)
    joint: dict[tuple[str, str], Fraction] = {}
    for outcome, p_env in problem.environment.items():
        cond, obs = outcome[:n_cond], outcome[n_cond:]
        for action, p_act in problem.agent[obs].items():
            for label, p_out in problem.consequence.get(cond + (action,), {}).items():
                key = (label, action)
                joint[key] = joint.get(key, Fraction(0)) + p_env * p_act * p_out
    total = sum(joint.values(), Fraction(0))
    if total == 0:
        return NO_FEASIBLE_ACTION
    lines, values = [], {}
    for action in problem.actions[1]:
        row = {u: w for (u, a), w in joint.items() if a == action and w}
        weight = sum(row.values(), Fraction(0))
        if weight == 0:
            lines.append(f"{action}\t0\tundef")
            continue
        value = sum((w * problem.utilities[u] for u, w in row.items()), Fraction(0)) / weight
        values[action] = value
        lines.append(f"{action}\t{rational(weight / total)}\t{rational(value)}")
    best = max(values.values())
    chosen = next(a for a in problem.actions[1] if values.get(a) == best)
    lines.append(f"prescribed:\t{chosen}")
    return "\n".join(lines) + "\n"


def law_report(law: str, instances: int, failures: int) -> str:
    return f"{law}: {instances} instances, {failures} failures"


def law_passed(name: str) -> str:
    """A one-case report of the named law with no failures."""
    return law_report(name, 1, 0)
