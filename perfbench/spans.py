"""In-memory span tracing of pmc, applied from outside the package.

Tracer.install wraps the functions listed in INSTRUMENTED and rebinds
every module attribute that holds one of them, in every loaded pmc
module: `edt` and `cli` import `evaluate` by name, `codec` imports
`make_kernel`, and the package root re-exports most of them.  Calls
through any of those names, recursive ones included, then record a
span: group, start, end, parent span and op id.  Tracer.uninstall puts
the original functions back.

A group's self time is the sum of its spans' durations minus the time
their child spans cover.  Counting work (entries, rows, bytes) happens
after a span has ended, inside a bookkeeping span of its own, so the
counting is charged to no layer.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict


def _entries(kernel) -> int:
    return sum(len(row) for row in kernel.rows.values())


def _compose_counts(args, result):
    bits = max(
        (q.denominator.bit_length() for row in result.rows.values() for q in row.values()),
        default=0,
    )
    return {"entries": _entries(result), "max_den_bits": bits}


def _tensor_counts(args, result):
    return {"entries": _entries(result)}


def _structural_counts(args, result):
    return {"rows": len(result.rows)}


def _emitted_bytes(args, result):
    return {"bytes": len(result.encode("utf-8"))}


# (module, function, group, counter).  Kernel functions are looked up
# through the module at call time, so wrapping them also covers calls
# made inside pmc.kernel itself (failure_probability -> compose).
INSTRUMENTED = (
    ("pmc.kernel", "compose", "kernel.compose", _compose_counts),
    ("pmc.kernel", "tensor", "kernel.tensor", _tensor_counts),
    ("pmc.kernel", "identity", "kernel.structural", _structural_counts),
    ("pmc.kernel", "copy", "kernel.structural", _structural_counts),
    ("pmc.kernel", "discard", "kernel.structural", _structural_counts),
    ("pmc.kernel", "swap", "kernel.structural", _structural_counts),
    ("pmc.kernel", "compare", "kernel.structural", _structural_counts),
    ("pmc.kernel", "make_kernel", "kernel.make_kernel", None),
    ("pmc.conditioning", "normalise", "conditioning.normalise", None),
    ("pmc.conditioning", "marginal", "conditioning.other", None),
    ("pmc.conditioning", "conditional", "conditioning.other", None),
    ("pmc.conditioning", "cond_compose", "conditioning.other", None),
    ("pmc.conditioning", "bayes_invert", "conditioning.other", None),
    ("pmc.conditioning", "pearl_update", "conditioning.other", None),
    ("pmc.conditioning", "jeffrey_update", "conditioning.other", None),
    ("pmc.diagram", "infer_type", "diagram.infer_type", None),
    ("pmc.diagram", "evaluate", "diagram.evaluate", None),
    ("pmc.diagram", "normal_form", "diagram.normal_form", None),
    ("pmc.edt", "solve", "edt.solve", None),
    ("pmc.edt", "action_state", "edt.action_state", None),
    ("pmc.edt", "conditioned_model", "edt.conditioned_model", None),
    ("pmc.codec", "env_from_json", "codec.parse", None),
    ("pmc.codec", "term_from_json", "codec.parse", None),
    ("pmc.codec", "problem_from_json", "codec.parse", None),
    ("pmc.codec", "kernel_from_json", "codec.parse", None),
    ("pmc.codec", "kernel_to_json", "codec.emit", None),
    ("pmc.codec", "to_text", "codec.emit", _emitted_bytes),
    ("pmc.codec", "prescription_to_tsv", "codec.emit", _emitted_bytes),
    ("pmc.laws", "check_law", "laws.check_law", None),
)
# Per-layer metrics, each (name, unit).  Self times are seconds per
# pass; counts are per pass and must repeat exactly.
LAYER_METRICS = (
    ("kernel.compose.calls", "count"),
    ("kernel.compose.self_s", "s"),
    ("kernel.compose.entries", "count"),
    ("kernel.compose.max_den_bits", "bits"),
    ("kernel.tensor.calls", "count"),
    ("kernel.tensor.self_s", "s"),
    ("kernel.tensor.entries", "count"),
    ("kernel.structural.calls", "count"),
    ("kernel.structural.self_s", "s"),
    ("kernel.structural.rows", "count"),
    ("kernel.make_kernel.self_s", "s"),
    ("conditioning.normalise.calls", "count"),
    ("conditioning.normalise.self_s", "s"),
    ("conditioning.other.self_s", "s"),
    ("diagram.infer_type.self_s", "s"),
    ("diagram.evaluate.calls", "count"),
    ("diagram.evaluate.self_s", "s"),
    ("diagram.normal_form.calls", "count"),
    ("diagram.normal_form.self_s", "s"),
    ("edt.solve.self_s", "s"),
    ("edt.action_state.calls", "count"),
    ("edt.model_evals_per_solve", "evals/solve"),
    ("codec.parse.self_s", "s"),
    ("codec.emit.self_s", "s"),
    ("codec.emit.bytes", "bytes"),
    ("laws.check_law.self_s", "s"),
)
COUNT_UNITS = ("count", "bits", "bytes", "evals/solve")


class Tracer:
    """Records spans of one traced pass; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list = []

    def _wrap(self, fn, group: str, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [group, start, end, parent, self._op, None]
            if counter is not None:
                spans[index][5] = counter(args, result)
                # Group None: counting time, covered by the parent but
                # charged to no layer.
                spans.append([None, end, clock(), parent, self._op, None])
            if group == "laws.check_law":
                spans[index][5] = {"law": args[0]}
            return result

        return traced

    def install(self) -> None:
        """Wrap every instrumented function and rebind each module
        attribute bound to it, across all loaded pmc modules."""
        wrappers = {}
        for module, name, group, counter in INSTRUMENTED:
            fn = getattr(sys.modules[module], name)
            wrappers[id(fn)] = (fn, self._wrap(fn, group, counter))
        pmc_modules = [
            m for n, m in sorted(sys.modules.items()) if n == "pmc" or n.startswith("pmc.")
        ]
        for mod in pmc_modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def call_op(self, op_id: int, fn, *args):
        """Run one op as a root span named "op"."""
        self._op = op_id
        return self._wrap(fn, "op", None)(*args)

    def reset(self) -> None:
        self.spans.clear()
        self._op = -1

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for i, (group, start, end, parent, op, extra) in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": group or "trace.bookkeeping",
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": op,
                }
                if extra:
                    record.update(extra)
                out.write(json.dumps(record) + "\n")

    def metrics(self, laws: tuple) -> tuple[dict, dict, Counter]:
        """Per-layer metrics, per-law milliseconds and calls per group,
        of the recorded pass."""
        covered = [0.0] * len(self.spans)
        for group, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        counts: Counter = Counter()
        max_bits = 0
        law_ms = {name: 0.0 for name in laws}
        for (group, start, end, _, _, extra), child in zip(self.spans, covered):
            if group is None:
                continue
            self_s[group] += end - start - child
            calls[group] += 1
            if group == "laws.check_law":
                law_ms[extra["law"]] = law_ms.get(extra["law"], 0.0) + (end - start) * 1e3
            elif extra:
                for key, value in extra.items():
                    if key == "max_den_bits":
                        max_bits = max(max_bits, value)
                    else:
                        counts[(group, key)] += value
        solves = calls["edt.solve"]
        values = {
            "kernel.compose.calls": calls["kernel.compose"],
            "kernel.compose.self_s": self_s["kernel.compose"],
            "kernel.compose.entries": counts[("kernel.compose", "entries")],
            "kernel.compose.max_den_bits": max_bits,
            "kernel.tensor.calls": calls["kernel.tensor"],
            "kernel.tensor.self_s": self_s["kernel.tensor"],
            "kernel.tensor.entries": counts[("kernel.tensor", "entries")],
            "kernel.structural.calls": calls["kernel.structural"],
            "kernel.structural.self_s": self_s["kernel.structural"],
            "kernel.structural.rows": counts[("kernel.structural", "rows")],
            "kernel.make_kernel.self_s": self_s["kernel.make_kernel"],
            "conditioning.normalise.calls": calls["conditioning.normalise"],
            "conditioning.normalise.self_s": self_s["conditioning.normalise"],
            "conditioning.other.self_s": self_s["conditioning.other"],
            "diagram.infer_type.self_s": self_s["diagram.infer_type"],
            "diagram.evaluate.calls": calls["diagram.evaluate"],
            "diagram.evaluate.self_s": self_s["diagram.evaluate"],
            "diagram.normal_form.calls": calls["diagram.normal_form"],
            "diagram.normal_form.self_s": self_s["diagram.normal_form"],
            # The solver's own code: solve, action_state, conditioned_model.
            "edt.solve.self_s": self_s["edt.solve"]
            + self_s["edt.action_state"]
            + self_s["edt.conditioned_model"],
            "edt.action_state.calls": calls["edt.action_state"],
            "edt.model_evals_per_solve": (
                calls["edt.conditioned_model"] / solves if solves else 0.0
            ),
            "codec.parse.self_s": self_s["codec.parse"],
            "codec.emit.self_s": self_s["codec.emit"],
            "codec.emit.bytes": counts[("codec.emit", "bytes")],
            "laws.check_law.self_s": self_s["laws.check_law"],
        }
        return values, law_ms, calls
