"""Benchmark of pmc: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload laws|solve|dense-eval|wide-eval \
        --seed N --seconds S --trace 0|1

Run it from the repository root; it imports pmc from ./src and builds
nothing.  The seed is the only source of inputs (see inputs.py).  One
process and one thread drive pmc through the functions the CLI calls,
in the CLI's order: json.loads, codec.*_from_json, diagram.infer_type
and diagram.evaluate or edt.solve, then codec emission.  Each op starts
when the previous one has finished, and whole passes over the staged
inputs repeat until the ops' summed time reaches --seconds.  Every
output is then checked against reference.py, which does not use pmc.

Every time reported is scaled to a reference machine speed with
calibrations taken between ops, every SEGMENT_S of op time (see
calibration.py); the unscaled figures are printed above the result.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates
untraced and traced passes (at least two of each, until --seconds have
passed), prints the per-layer metrics from the traced passes, checks
that traced outputs equal untraced ones and that every count repeats
exactly, and writes the first traced pass's spans under .perfbench-out/.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Without pmc under ./src the run prints no result and exits with 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import calibration
import inputs
import reference
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
SEGMENT_S = 0.5

# Which end-to-end metric each layer should move, and where.
LAYER_TARGETS = (
    ("kernel.compose", "ops_per_s/op_ms_p50 on dense-eval, then laws"),
    ("kernel.tensor", "op_ms_*/peak_rss_mb on wide-eval, op_ms_p90 on solve"),
    ("kernel.structural", "wide-eval and solve"),
    ("kernel.make_kernel", "op_ms_p50 on dense-eval and solve"),
    ("conditioning", "normalise: solve; other: laws"),
    ("diagram", "infer_type/evaluate: wide-eval and solve; normal_form: laws"),
    ("edt", "op_ms_p50/op_ms_p90 on solve"),
    ("codec", "op_ms_*/peak_rss_mb on wide-eval, some dense-eval"),
    ("laws", "ops_per_s on laws"),
)
WAITS = "waits: none - one thread, closed loop, no I/O inside an op, so no layer queues or waits"


class Program:
    """The pmc modules the ops call.  Functions are looked up through
    the modules on every call, so the tracer's rebinding takes effect."""

    def __init__(self) -> None:
        self.codec = sys.modules["pmc.codec"]
        self.diagram = sys.modules["pmc.diagram"]
        self.edt = sys.modules["pmc.edt"]
        self.laws = sys.modules["pmc.laws"]
        self.errors = sys.modules["pmc.errors"]


def eval_op(m: Program, doc) -> str:
    env_text, term_text = doc
    alphabets, kernels = m.codec.env_from_json(json.loads(env_text))
    term = m.codec.term_from_json(json.loads(term_text), alphabets, kernels)
    m.diagram.infer_type(term)
    return m.codec.to_text(m.codec.kernel_to_json(m.diagram.evaluate(term)))


def solve_op(m: Program, doc) -> str:
    problem = m.codec.problem_from_json(json.loads(doc[0]))
    try:
        prescription = m.edt.solve(problem)
    except m.errors.NoFeasibleAction:
        return reference.NO_FEASIBLE_ACTION
    return m.codec.prescription_to_tsv(prescription)


def laws_op(m: Program, doc):
    name, case_seed = doc
    return m.laws.check_law(name, 1, case_seed)


OPS = {"laws": laws_op, "solve": solve_op, "dense-eval": eval_op, "wide-eval": eval_op}


def expected_text(workload: str, slot) -> str:
    if workload == "laws":
        return reference.law_passed(slot.doc[0])
    if workload == "solve":
        return reference.solve(slot.spec)
    if workload == "dense-eval":
        return reference.dense_chain(slot.spec)
    return reference.wide_tensor(slot.spec)


def output_key(result) -> str:
    """Digest of an op's output; a law report is rendered first."""
    if not isinstance(result, str):
        result = reference.law_report(result.law, result.instances, result.failures)
    return hashlib.sha256(result.encode("utf-8")).hexdigest()


def set_up(workload: str, seed: int):
    """Import pmc afresh and stage the inputs; returns (seconds, slots)."""
    for name in [n for n in sys.modules if n == "pmc" or n.startswith("pmc.")]:
        del sys.modules[name]
    start = time.perf_counter()
    for name in ("pmc", "pmc.codec", "pmc.cli"):
        importlib.import_module(name)
    slots = inputs.stage(workload, seed)
    return time.perf_counter() - start, slots


def run_pass(m: Program, slots, op, scale, tracer=None):
    """One closed-loop pass: (latencies at reference speed, measured
    latencies, output keys, error messages).  The machine is calibrated
    after every SEGMENT_S of op time and at the end of the pass."""
    latencies, raw, keys, errors = [], [], [], []
    clock = time.perf_counter
    segment, pending = 0, 0.0
    for i, slot in enumerate(slots):
        start = clock()
        try:
            if tracer is None:
                result = op(m, slot.doc)
            else:
                result = tracer.call_op(i, op, m, slot.doc)
        except Exception as exc:  # the op boundary: any raise is a failed op
            raw.append(clock() - start)
            keys.append(None)
            errors.append(f"slot {i}: {type(exc).__name__}: {exc}")
        else:
            raw.append(clock() - start)
            keys.append(output_key(result))
        pending += raw[-1]
        if pending >= SEGMENT_S or i == len(slots) - 1:
            factor = scale.next()
            latencies += [x * factor for x in raw[segment:]]
            segment, pending = len(raw), 0.0
    return latencies, raw, keys, errors


def count_failures(passes_keys, expected) -> tuple[int, list[str]]:
    failed, notes = 0, []
    for keys in passes_keys:
        for i, (got, want) in enumerate(zip(keys, expected)):
            if got != want:
                failed += 1
                if got is not None and len(notes) < 3:
                    notes.append(f"slot {i}: output differs from the reference")
    return failed, notes


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pmc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "none"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def inputs_digest(slots) -> str:
    h = hashlib.sha256()
    for slot in slots:
        h.update(json.dumps(slot.doc).encode("utf-8") + b"\n")
    return h.hexdigest()


def noise_note() -> str:
    path = Path(__file__).with_name("noise.json")
    return json.loads(path.read_text(encoding="utf-8"))["note"]


def end_to_end(args, m, slots, setup_times, scale) -> dict:
    op = OPS[args.workload]
    latencies, raw, passes, errors = [], [], [], []
    while sum(raw) < args.seconds:
        lat, measured, keys, errs = run_pass(m, slots, op, scale)
        latencies += lat
        raw += measured
        passes.append(keys)
        errors += errs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    expected = [output_key(expected_text(args.workload, s)) for s in slots]
    failed, notes = count_failures(passes, expected)
    n = len(latencies)
    timed = sum(latencies)
    deciles = statistics.quantiles(latencies, n=10)
    p90 = deciles[8]
    setup_s = statistics.median(setup_times)
    print(
        f"loop closed, 1 caller, 1 thread: {len(passes)} passes, {n} ops, "
        f"{sum(raw):.3f} s measured = {timed:.3f} s at reference speed; "
        f"unscaled ops_per_s {n / sum(raw):.6g}, op_ms_p50 {statistics.median(raw) * 1e3:.6g}"
    )
    metrics = {
        "ops_per_s": (n / timed, "op/s", f"{n} ops over {timed:.3f} s of op time"),
        "op_ms_p50": (statistics.median(latencies) * 1e3, "ms", f"median of {n} ops"),
        "op_ms_p90": (
            p90 * 1e3,
            "ms",
            f"of {n} ops; {sum(1 for x in latencies if x > p90)} above it",
        ),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss of this process after the loop"),
        "setup_s": (
            setup_s,
            "s",
            f"median of {len(setup_times)} set-ups: import pmc + stage inputs",
        ),
        "error_rate": (failed / n, "ratio", f"{failed} failed / {n} attempted"),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<12} {value:>14.6g} {unit:<6} ({note})")
    for line in errors[:3] + notes:
        print(f"failure: {line}")
    # error_rate is 0 on a correct run; it travels as failed/attempted
    # in the result line rather than as a metric.
    return {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
            if name != "error_rate"
        },
    }


def per_layer(args, m, slots, scale) -> dict:
    op = OPS[args.workload]
    tracer = spans.Tracer()
    untraced, traced, layers, law_ms = [], [], [], []
    passes, errors = [], []
    clock = time.perf_counter
    start = clock()
    while len(traced) < 2 or clock() - start < args.seconds:
        lat, _, keys, errs = run_pass(m, slots, op, scale)
        untraced.append(sum(lat))
        passes.append(keys)
        errors += errs
        tracer.install()
        try:
            lat, measured, keys, errs = run_pass(m, slots, op, scale, tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(lat))
        factor = sum(lat) / sum(measured)
        passes.append(keys)
        errors += errs
        values, ms, calls = tracer.metrics(inputs.LAWS)
        for name, unit in spans.LAYER_METRICS:
            if unit == "s":
                values[name] *= factor
        ms = {law: t * factor for law, t in ms.items()}
        if not layers:
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}.jsonl"
            tracer.write(spans_path)
            n_spans = len(tracer.spans)
            solves = calls["edt.solve"]
        layers.append(values)
        law_ms.append(ms)
        tracer.reset()

    expected = [output_key(expected_text(args.workload, s)) for s in slots]
    failed, notes = count_failures(passes, expected)
    outputs_agree = all(keys == passes[0] for keys in passes)
    counts = [
        {name: v[name] for name, unit in spans.LAYER_METRICS if unit in spans.COUNT_UNITS}
        for v in layers
    ]
    counts_repeat = all(c == counts[0] for c in counts)
    overhead = statistics.median(traced) / statistics.median(untraced) - 1

    metrics = {}
    for name, unit in spans.LAYER_METRICS:
        if unit in spans.COUNT_UNITS:
            value = layers[0][name]
        else:
            value = statistics.median(v[name] for v in layers)
        metrics[name] = {"value": value, "unit": unit}
    for law in inputs.LAWS:
        metrics[f"laws.{law}.ms"] = {
            "value": statistics.median(ms[law] for ms in law_ms),
            "unit": "ms",
        }
    metrics["tracing.overhead"] = {"value": overhead, "unit": "ratio"}

    print(
        f"traced {len(traced)} and untraced {len(untraced)} passes of {len(slots)} ops; "
        f"{n_spans} spans per traced pass written to {spans_path.relative_to(ROOT)}"
    )
    print(
        f"tracing overhead {overhead:.3f} (median traced pass {statistics.median(traced):.3f} s "
        f"vs untraced {statistics.median(untraced):.3f} s)"
    )
    print(f"self-check: traced outputs equal untraced outputs: {outputs_agree}")
    print(f"self-check: counts repeat exactly across {len(layers)} traced passes: {counts_repeat}")
    print(f"edt.model_evals_per_solve base: {solves} solves per pass")
    for name, value in metrics.items():
        print(f"{name:<48} {value['value']:>14.6g} {value['unit']}")
    for prefix, target in LAYER_TARGETS:
        print(f"moves: {prefix:<20} -> {target}")
    print(WAITS)
    for line in errors[:3] + notes:
        print(f"failure: {line}")
    attempted = sum(len(keys) for keys in passes)
    return {
        "correct": failed == 0 and outputs_agree and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(SRC))
    scale = calibration.Scale()
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            seconds, slots = set_up(args.workload, args.seed)
            setup_times.append(seconds * scale.next())
    except ImportError as exc:
        print(f"perfbench: cannot import pmc from {SRC}: {exc}", file=sys.stderr)
        return 1
    origin = Path(sys.modules["pmc"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"perfbench: pmc was imported from {origin}, not {SRC}", file=sys.stderr)
        return 1
    m = Program()

    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"
    )
    print(
        f"context python {platform.python_version()} ({platform.python_implementation()}) "
        f"nproc {os.cpu_count()} commit {git_commit()} src_sha256 {source_digest()}"
    )
    print(f"inputs {len(slots)} ops per pass, sha256 {inputs_digest(slots)}")
    print(f"noise: {noise_note()}")
    if args.trace:
        result = per_layer(args, m, slots, scale)
    else:
        result = end_to_end(args, m, slots, setup_times, scale)
    print(
        f"machine: calibration took {statistics.median(scale.samples) * 1e3:.2f} ms "
        f"(median of {len(scale.samples)}); times above are scaled to "
        f"{calibration.REFERENCE_S * 1e3:g} ms"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
