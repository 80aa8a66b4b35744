"""Command-line front end.

Exit codes: 0 on success, 1 on validation or parse errors (including
TermTooDeep, a document whose terms nest thousands of levels deep; a
flat compose or tensor list of any length is one level), 2 when an
inference result is mathematically undefined (impossible evidence, no
feasible action, undefined utility).  Errors go to standard error as
"error: <Code>: <message>".  Output is streamed to standard output; a
reader that closes the pipe early is not an error (exit 0).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable

from . import codec, edt, laws
from .conditioning import bayes_invert, jeffrey_update, normalise, pearl_update
from .diagram import evaluate, infer_type
from .errors import InferenceUndefined, PmcError, SchemaError, TermTooDeep


def _load_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _load_kernel(path: str):
    return codec.kernel_from_json(_load_json(path), where=path)


def _cmd_eval(args) -> int:
    alphabets, kernels = codec.env_from_json(
        _load_json(args.env) if args.env else {}
    )
    term = codec.term_from_json(_load_json(args.diagram), alphabets, kernels)
    infer_type(term)
    codec.write_text(codec.kernel_to_json(evaluate(term)), sys.stdout.write)
    return 0


def _cmd_solve(args) -> int:
    problem = codec.problem_from_json(_load_json(args.problem))
    prescription = edt.solve(problem)
    if args.format == "json":
        codec.write_text(
            codec.prescription_to_json(prescription), sys.stdout.write
        )
    else:
        sys.stdout.write(codec.prescription_to_tsv(prescription))
    return 0


def _cmd_invert(args) -> int:
    channel = _load_kernel(args.channel)
    prior = _load_kernel(args.prior)
    inverse = bayes_invert(channel, prior)
    codec.write_text(codec.kernel_to_json(inverse), sys.stdout.write)
    return 0


def _cmd_normalise(args) -> int:
    normalised = normalise(_load_kernel(args.kernel))
    codec.write_text(codec.kernel_to_json(normalised), sys.stdout.write)
    return 0


def _cmd_update(args) -> int:
    prior = _load_kernel(args.prior)
    channel = _load_kernel(args.channel)
    evidence = _load_kernel(args.evidence)
    if args.rule == "pearl":
        posterior = pearl_update(prior, channel, evidence)
    else:
        posterior = jeffrey_update(prior, channel, evidence)
    codec.write_text(codec.kernel_to_json(posterior), sys.stdout.write)
    return 0


def _default_seed() -> int:
    env = os.environ.get("PMC_SEED")
    if env is None:
        return laws.DEFAULT_SEED
    try:
        return int(env)
    except ValueError as exc:
        raise SchemaError(f"PMC_SEED must be an integer, got {env!r}") from exc


def _cmd_laws(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.law is not None:
        reports = [laws.check_law(args.law, args.cases, seed)]
    else:
        reports = laws.check_all(args.cases, seed)
    if args.format == "json":
        payload = [codec.report_to_json(r) for r in reports]
        codec.write_text(payload, sys.stdout.write)
    else:
        for r in reports:
            sys.stdout.write(codec.report_to_text(r))
    return 0 if all(r.failures == 0 for r in reports) else 1


def _cmd_corpus(args) -> int:
    if args.name not in edt.CORPUS:
        raise SchemaError(
            f"unknown corpus problem {args.name!r}; "
            f"known: {', '.join(sorted(edt.CORPUS))}"
        )
    builder = edt.CORPUS[args.name]
    if args.name == "death-in-damascus" and args.printed_table:
        problem = builder(printed_table=True)
    elif args.printed_table:
        raise SchemaError("--printed-table only applies to death-in-damascus")
    else:
        problem = builder()
    codec.write_text(codec.problem_to_json(problem), sys.stdout.write)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmc",
        description=(
            "Exact subdistribution-kernel engine: evaluate diagrams, "
            "condition, invert, and solve evidential decision problems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a diagram term to a kernel")
    p.add_argument("diagram", help="diagram JSON file")
    p.add_argument("--env", help="environment JSON file with named kernels")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("solve", help="solve a decision problem")
    p.add_argument("problem", help="problem JSON file")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("invert", help="Bayesian inversion of a channel")
    p.add_argument("--channel", required=True, help="channel kernel JSON file")
    p.add_argument("--prior", required=True, help="prior state JSON file")
    p.set_defaults(fn=_cmd_invert)

    p = sub.add_parser("normalise", help="normalise a kernel row-wise")
    p.add_argument("kernel", help="kernel JSON file")
    p.set_defaults(fn=_cmd_normalise)

    p = sub.add_parser("update", help="update a prior on evidence")
    p.add_argument("--rule", choices=("pearl", "jeffrey"), required=True)
    p.add_argument("--prior", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument(
        "--evidence",
        required=True,
        help="predicate kernel (pearl) or target state (jeffrey)",
    )
    p.set_defaults(fn=_cmd_update)

    p = sub.add_parser("laws", help="run the law suite")
    p.add_argument("--law", help="run a single named law")
    p.add_argument("--cases", type=int, default=laws.DEFAULT_CASES)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_laws)

    p = sub.add_parser("corpus", help="emit a built-in decision problem")
    p.add_argument("name", help=", ".join(sorted(edt.CORPUS)))
    p.add_argument(
        "--printed-table",
        action="store_true",
        help="death-in-damascus only: use the alternative payoff orientation",
    )
    p.set_defaults(fn=_cmd_corpus)

    return parser


def _run(args) -> int:
    try:
        return args.fn(args)
    except RecursionError as exc:
        raise TermTooDeep(
            "input nests too deeply to evaluate within the recursion limit"
        ) from exc


def guarded(body: Callable[[], int]) -> int:
    """Run an entry point's work, argument parsing included, and return
    its exit status.

    body returns the status on success.  A PmcError becomes
    "error: <Code>: <message>" on standard error and status 1, or 2 for
    InferenceUndefined.  A usage error is status 1 and --help status 0.
    A reader that closed standard output early is not an error: the
    status is 0.
    """
    try:
        code = body()
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except SystemExit as exc:
        # argparse exits 2 on usage errors; our exit 2 is reserved for
        # inference-undefined results, so remap usage problems to 1.
        return 0 if exc.code in (0, None) else 1
    except BrokenPipeError:
        # The reader stopped early (`pmc eval ... | head`): that is not an
        # error.  Point stdout at devnull so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except InferenceUndefined as exc:
        sys.stderr.write(f"error: {exc.code}: {exc}\n")
        return 2
    except PmcError as exc:
        sys.stderr.write(f"error: {exc.code}: {exc}\n")
        return 1


def main(argv=None) -> int:
    return guarded(lambda: _run(_build_parser().parse_args(argv)))


if __name__ == "__main__":
    raise SystemExit(main())
