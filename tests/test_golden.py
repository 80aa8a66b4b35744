"""Byte-for-byte golden outputs: the CLI, scripts/solve_corpus.py,
scripts/newcomb_noise_sweep.py and the random kernel generators.

eval_pairs.txt lists the eval goldens, one "term env" pair per line:
pmc eval reads <term>.json in the environment <env>.json and writes
<term>.out.json.  Every other file under tests/golden/ except the eval
inputs is an output, pinned so that a change to parsing, arithmetic or
emission cannot alter a byte unnoticed.  Regenerating one is a
deliberate act:

    pmc laws --cases 50 --seed 7 [--format json]  > laws_50_seed7.{txt,json}
    python scripts/solve_corpus.py [--format json] > solve_corpus.{tsv,json}
    python scripts/newcomb_noise_sweep.py --steps 4 > newcomb_sweep_steps4.tsv
    python scripts/newcomb_noise_sweep.py --noise 999/2000 --noise 1/3 \
        > newcomb_sweep_noise.tsv
    while read -r term env; do
        pmc eval $term.json --env $env.json > $term.out.json
    done < eval_pairs.txt
    for name in newcomb transparent-newcomb monty-hall death-in-damascus \
            death-in-damascus-coin smoking-lesion; do
        pmc corpus $name > corpus_$name.json
    done
    pmc corpus death-in-damascus --printed-table \
        > corpus_death-in-damascus-printed-table.json

After dense_chain the eval pairs cover a tensor of wiring and a
unit-domain generator, a unit codomain with labels json escapes, a
kernel that always fails, a partial generator followed by comparators,
observations and discards, bare and between Ids, a chain whose steps
are Tensors of comparators, of Ids only, of two generators (one
partial), of a nested Compose, and of an observation beside a Copy, a
top-level tensor of a partial generator, a second generator, a Copy
and a Swap, and a plain domain beside a codomain of plain and escaped
labels whose rows were declared out of order, and a chain of three
generators whose rows sum over denominators at or either side of byte
boundaries (256, 65,536, and 255 * 256 * 257 and 256 * 256 * 257 about
2**24), the first two carrying a row's whole mass in one column, and a
top-level tensor of a generator with fractional entries and an
all-fail row, a partial generator, a unit-domain state, a Copy and a
Swap over labels json escapes, written from its factors.  The corpus_*.json files
hold every built-in decision problem, kernels nested in a problem.

and random_kernels.txt is the text random_kernels_text() below returns.
"""

from __future__ import annotations

import importlib.util
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from pmc import cli, codec, laws
from pmc.kernel import Alphabet, Obj

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent


def _script_main(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


EVAL_PAIRS = [
    line.split() for line in (GOLDEN / "eval_pairs.txt").read_text("utf-8").splitlines()
]


def _eval(term, env):
    argv = ["eval", str(GOLDEN / f"{term}.json"), "--env", str(GOLDEN / f"{env}.json")]
    return argv, f"{term}.out.json"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["laws", "--cases", "50", "--seed", "7"], "laws_50_seed7.txt"),
        (
            ["laws", "--cases", "50", "--seed", "7", "--format", "json"],
            "laws_50_seed7.json",
        ),
        *(_eval(term, env) for term, env in EVAL_PAIRS[:4]),
        (["corpus", "newcomb"], "corpus_newcomb.json"),
        # Later, so that the parameter ids above keep their numbers.
        *(_eval(term, env) for term, env in EVAL_PAIRS[4:8]),
        *(
            (["corpus", name], f"corpus_{name}.json")
            for name in (
                "transparent-newcomb",
                "monty-hall",
                "death-in-damascus",
                "death-in-damascus-coin",
                "smoking-lesion",
            )
        ),
        (
            ["corpus", "death-in-damascus", "--printed-table"],
            "corpus_death-in-damascus-printed-table.json",
        ),
        # Last, for the same reason.
        *(_eval(term, env) for term, env in EVAL_PAIRS[8:]),
    ],
)
def test_cli_output_matches_golden(argv, golden, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text("utf-8")


def test_every_eval_golden_is_in_the_pair_list():
    assert sorted(p.name for p in GOLDEN.glob("*.out.json")) == sorted(
        f"{term}.out.json" for term, _ in EVAL_PAIRS
    )


@pytest.mark.parametrize(
    "argv, golden",
    [([], "solve_corpus.tsv"), (["--format", "json"], "solve_corpus.json")],
)
def test_solve_corpus_output_matches_golden(argv, golden, capsys):
    assert _script_main("solve_corpus")(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text("utf-8")


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["--steps", "4"], "newcomb_sweep_steps4.tsv"),
        (
            ["--noise", "999/2000", "--noise", "1/3"],
            "newcomb_sweep_noise.tsv",
        ),
    ],
)
def test_newcomb_noise_sweep_output_matches_golden(argv, golden, capsys):
    assert _script_main("newcomb_noise_sweep")(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text("utf-8")


@pytest.mark.parametrize(
    "noise, message",
    [
        ("x", "error: SchemaError: not a rational: 'x'\n"),
        ("3/2", "error: BadParameter: predictor_noise = 3/2 outside [0, 1]\n"),
        ("1e-1000000", "error: SchemaError: not a rational: '1e-1000000'\n"),
    ],
)
def test_newcomb_noise_sweep_refuses_bad_noise(noise, message, capsys):
    # A good point before the bad one: no line is written unless all are.
    main = _script_main("newcomb_noise_sweep")
    start = time.perf_counter()
    assert main(["--noise", "1/3", "--noise", noise]) == 1
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr() == ("", message)


def random_kernels_text() -> str:
    """Kernels from laws.random_kernel, laws._rand_kernel (general, and
    total under the golden file's `_rand_total_kernel` labels) and
    laws._rand_deterministic (total and partial) at a few seeds and
    densities, one line per row in stored order."""
    x = Obj((Alphabet("x", ("x0", "x1")),))
    yz = Obj((Alphabet("y", ("y0", "y1")), Alphabet("z", ("z0", "z1"))))
    densities = ("0", "1/3", "7/10", "1")
    made = [
        (f"random_kernel({seed}, {d})", laws.random_kernel(seed, x, yz, d))
        for seed in (0, 1, 7)
        for d in densities
    ]
    for seed in (0, 1, 7):
        rng = Random(seed)
        made += [
            (f"_rand_kernel({seed}, {d})", laws._rand_kernel(rng, x, yz, Fraction(d)))
            for d in densities
        ]
        made.append((f"_rand_kernel({seed})", laws._rand_kernel(rng, yz, x)))
    for seed in (0, 1, 7):
        rng = Random(seed)
        made += [
            (f"_rand_total_kernel({seed})", laws._rand_kernel(rng, x, yz, total=True)),
            (
                f"_rand_total_kernel({seed}, yz)",
                laws._rand_kernel(rng, yz, x, total=True),
            ),
            (f"_rand_deterministic({seed})", laws._rand_deterministic(rng, yz, x)),
            (
                f"_rand_deterministic({seed}, partial)",
                laws._rand_deterministic(rng, yz, yz, partial=True),
            ),
            (
                f"_rand_deterministic({seed}, unit)",
                laws._rand_deterministic(rng, Obj(()), yz),
            ),
        ]
    lines = []
    for name, k in made:
        lines.append(name)
        for row_in, row in k.rows.items():
            entries = " ".join(
                f"{','.join(y)}={codec.format_fraction(p)}" for y, p in row.items()
            )
            lines.append(f"  {','.join(row_in)}: {entries}")
    return "\n".join(lines) + "\n"


def test_random_kernels_match_golden():
    assert random_kernels_text() == (GOLDEN / "random_kernels.txt").read_text("utf-8")
