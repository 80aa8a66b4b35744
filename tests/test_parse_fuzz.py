"""Seeded mutation fuzz of the kernel, problem and term readers.

Golden environment, problem and diagram-term documents are mutated at
random: a part is replaced by a value of another JSON type or by a
huge, negative, float or malformed number or label, a key or item is
deleted, an item is duplicated, or a part is replaced by a copy of
another part.  Every mutant must end in a result or in a PmcError; any
other exception escapes and fails the test.  Only the standard
library's random is used, and each mutant has its own seed, so a
failure names the mutant that reproduces it.  A mutated term, its
mutated environment, or both, go through all of `pmc eval`'s steps:
read, type, evaluate and write.

Few of those mutants are still valid: of the 1000 term mutants, 30
evaluate.  So a second kind of mutant keeps its documents well-formed
and well-typed: a subterm is replaced by a copy of another subterm of
the same type, or wrapped in a one-term Compose or Tensor or beside an
identity, an observed point is moved to other labels, or a
generator's row is split anew over the same outputs with the same
mass.  Each of the 400 such mutants must evaluate, and 393 of them
differ from their goldens.  Every mutant that evaluates must equal
test_diagram._fold, the plain evaluator.

The same mutations reach the command line: `pmc eval`, `normalise`,
`invert`, `update` and `solve` run in-process (cli.main) on mutated
golden files, a file now and then cut short.  Each run must return an
exit status README documents, 0, 1 or 2, and never raise; a failure
writes nothing to standard output and "error: <Code>: " to standard
error, Code a PmcError, and an undefined inference result (2) is an
InferenceUndefined.
"""

from __future__ import annotations

import copy
import json
import random
import re
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from pmc import cli, codec, edt, errors
from pmc.diagram import evaluate, infer_type
from pmc.errors import InferenceUndefined, PmcError

from test_diagram import _fold

GOLDEN = Path(__file__).parent / "golden"
READERS = {"env": codec.env_from_json, "problem": codec.problem_from_json}
DOCS = [
    ("env", "dense_env"),
    ("env", "partial_env"),
    ("env", "mixed_env"),
    ("problem", "corpus_newcomb"),
    ("problem", "corpus_monty-hall"),
    ("problem", "corpus_smoking-lesion"),
]
MUTANTS = 300
BUDGET_S = 3.0
# The (term, environment) golden pairs that `pmc eval` is checked on.
PAIRS = [
    tuple(line.split())
    for line in (GOLDEN / "eval_pairs.txt").read_text("utf-8").splitlines()
]
TERM_MUTANTS = 1000
WELL_FORMED_MUTANTS = 400
CLI_MUTANTS = 400
# Probabilities put in place of an entry's, each a valid rational.
WEIGHTS = ("0", "0", "1/9", "1/2", "1")

# Values put in place of a part.  Each use is a fresh deep copy, so a
# later mutation of the same document cannot change this table.
VALUES = (
    None, True, False, 0, 1, -1, 2, 10**400, -(10**400), 0.5, -0.0, 1e308,
    "", "t", "zz", "1/2", "-1/2", "3/2", "1/0", "1e-1", "1/2/3", "0x10",
    " 1/4 ", "٣/٤", "1_000", "9" * 5000, "0." + "1" * 5000, "1" + "0" * 4000,
    [], ["t"], [None], [[]], [{}], {}, {"val": ["t"], "p": "1"},
    {"in": [], "out": []}, {"name": "bool", "labels": ["t", "t"]},
)


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


def _mutate(rng: random.Random, doc) -> None:
    """Apply one to three random mutations to doc in place."""
    for _ in range(rng.randint(1, 3)):
        spots = _spots(doc)
        if not spots:
            return
        node, key = rng.choice(spots)
        how = rng.choice(["value", "value", "delete", "duplicate", "graft"])
        if how == "value":
            node[key] = copy.deepcopy(rng.choice(VALUES))
        elif how == "delete":
            del node[key]
        elif how == "duplicate" and isinstance(node, list):
            node.insert(rng.randint(0, len(node)), copy.deepcopy(node[key]))
        else:
            other, at = rng.choice(spots)
            node[key] = copy.deepcopy(other[at])


def test_mutated_documents_are_read_or_refused():
    valid = {
        name: (kind, json.loads((GOLDEN / f"{name}.json").read_text("utf-8")))
        for kind, name in DOCS
    }
    start = time.perf_counter()
    refused = 0
    for i in range(MUTANTS):
        rng = random.Random(f"parse-fuzz:{i}")
        kind, name = DOCS[i % len(DOCS)]
        doc = copy.deepcopy(valid[name][1])
        _mutate(rng, doc)
        try:
            READERS[kind](doc)
        except PmcError:
            refused += 1
        except Exception as exc:
            raise AssertionError(f"mutant {i} of {name}: {exc!r}") from exc
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, f"{MUTANTS} mutants took {elapsed:.2f} s"
    # The mutations reach the readers' checks, not only valid documents.
    assert MUTANTS // 4 < refused < MUTANTS


def _eval_text(term_doc, env_doc) -> str:
    """`pmc eval`'s steps on two documents: the kernel's text.  The
    kernel must be the plain fold's."""
    alphabets, kernels = codec.env_from_json(env_doc)
    term = codec.term_from_json(term_doc, alphabets, kernels)
    infer_type(term)
    result = evaluate(term)
    assert result == _fold(term)
    return codec.to_text(result)


def _subterms(holder):
    """Every (container, key) whose value is a term inside holder."""
    spots, todo = [], [holder]
    while todo:
        node = todo.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, dict) and "op" in value:
                spots.append((node, key))
                todo.append(value.get("terms", []))
    return spots


def _reshape(rng: random.Random, term, env):
    """One to three mutations of term and env that keep both valid;
    returns the term, which may be a new root.  A swap with no other
    subterm of the same type wraps instead, and a point move with no
    observation splits a row instead."""
    holder = [term]
    alphabets, kernels = codec.env_from_json(env)
    labels = {a["name"]: a["labels"] for a in env["alphabets"]}
    for _ in range(rng.randint(1, 3)):
        how = rng.choice(["swap", "swap", "wrap", "point", "split"])
        spots = _subterms(holder)
        seen = [(n, k) for n, k in spots if n[k]["op"] == "observe"]
        if how == "point" and seen:
            node, key = rng.choice(seen)
            node[key]["point"] = [rng.choice(labels[a]) for a in node[key]["obj"]]
            continue
        if how in ("point", "split"):
            rows = [
                r for k in env["kernels"].values() for r in k["rows"] if len(r["out"]) > 1
            ]
            if rows:
                out = rng.choice(rows)["out"]
                mass = sum(Fraction(e["p"]) for e in out)
                weights = [rng.randint(1, 9) for _ in out]
                for e, w in zip(out, weights):
                    e["p"] = str(mass * w / sum(weights))
            continue
        typed = [
            (node, key, infer_type(codec.term_from_json(node[key], alphabets, kernels)))
            for node, key in spots
        ]
        node, key, (dom, cod) = rng.choice(typed)
        others = [n[k] for n, k, t in typed if t == (dom, cod) and n[k] != node[key]]
        if how == "swap" and others:
            node[key] = copy.deepcopy(rng.choice(others))
            continue
        sub = node[key]
        ids = [{"op": "id", "obj": [a.name for a in x.factors]} for x in (dom, cod)]
        node[key] = rng.choice([
            {"op": "compose", "terms": [sub]},
            {"op": "tensor", "terms": [sub]},
            {"op": "compose", "terms": [ids[0], sub]},
            {"op": "compose", "terms": [sub, ids[1]]},
            {"op": "tensor", "terms": [{"op": "id", "obj": []}, sub]},
        ])
    return holder[0]


def test_mutated_terms_are_evaluated_or_refused():
    valid = {
        name: json.loads((GOLDEN / f"{name}.json").read_text("utf-8"))
        for pair in PAIRS
        for name in pair
    }
    start = time.perf_counter()
    refused = 0
    for i in range(TERM_MUTANTS):
        rng = random.Random(f"term-fuzz:{i}")
        term_name, env_name = PAIRS[i % len(PAIRS)]
        term, env = copy.deepcopy(valid[term_name]), copy.deepcopy(valid[env_name])
        which = rng.choice(["term", "env", "both"])
        if which != "env":
            _mutate(rng, term)
        if which != "term":
            _mutate(rng, env)
        try:
            _eval_text(term, env)
        except PmcError:
            refused += 1
        except Exception as exc:
            raise AssertionError(
                f"mutant {i} of {term_name} in {env_name}: {exc!r}"
            ) from exc
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, f"{TERM_MUTANTS} mutants took {elapsed:.2f} s"
    # 970 are refused and 30 evaluate.
    assert TERM_MUTANTS // 4 < refused < TERM_MUTANTS


def test_well_formed_mutants_evaluate_as_the_plain_fold():
    valid = {
        name: json.loads((GOLDEN / f"{name}.json").read_text("utf-8"))
        for pair in PAIRS
        for name in pair
    }
    start = time.perf_counter()
    changed = 0
    for i in range(WELL_FORMED_MUTANTS):
        rng = random.Random(f"well-formed-fuzz:{i}")
        term_name, env_name = PAIRS[i % len(PAIRS)]
        term, env = copy.deepcopy(valid[term_name]), copy.deepcopy(valid[env_name])
        term = _reshape(rng, term, env)
        changed += (term, env) != (valid[term_name], valid[env_name])
        try:
            _eval_text(term, env)
        except Exception as exc:  # a PmcError too: each mutant is valid
            raise AssertionError(
                f"well-formed mutant {i} of {term_name} in {env_name}: {exc!r}"
            ) from exc
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, f"{WELL_FORMED_MUTANTS} mutants took {elapsed:.2f} s"
    # A split may draw a row's own probabilities again, so a few mutants
    # (7) are their goldens.
    assert changed > WELL_FORMED_MUTANTS * 9 // 10


def _cli_runs() -> list[tuple[list[str], dict]]:
    """Each command line the CLI fuzz mutates, as (argv, documents): an
    argument of argv that names a document is replaced by its file.
    The documents are golden files, but for the update evidence, which
    no golden file holds: the point "t" of the golden channel's
    codomain, as a predicate (pearl) and as a state (jeffrey)."""

    def golden(name):
        return json.loads((GOLDEN / f"{name}.json").read_text("utf-8"))

    mixed = golden("tensor_mixed_env")["kernels"]
    b = mixed["frac"]["cod"]
    update = {"prior": mixed["st"], "channel": mixed["frac"]}
    flags = ["--prior", "prior", "--channel", "channel", "--evidence", "evidence"]
    return [
        *((["eval", "term", "--env", "env"], {"term": golden(t), "env": golden(e)})
          for t, e in PAIRS),
        *((["normalise", "kernel"], {"kernel": golden(f"{name}.out")})
          for name in ("dense_chain", "partial_chain", "unit_cod", "mixed_labels")),
        (["invert", "--channel", "channel", "--prior", "prior"], update),
        (["update", "--rule", "pearl", *flags], {**update, "evidence": {
            "dom": b, "cod": [], "rows": [{"in": ["t"], "out": [{"val": [], "p": "1"}]}],
        }}),
        (["update", "--rule", "jeffrey", *flags], {**update, "evidence": {
            "dom": [], "cod": b, "rows": [{"in": [], "out": [{"val": ["t"], "p": "1"}]}],
        }}),
        *((["solve", "problem", "--format", fmt], {"problem": golden(f"corpus_{name}")})
          for name in edt.CORPUS for fmt in ("tsv", "json")),
    ]


def test_mutated_cli_inputs_exit_0_1_or_2(tmp_path, capsys):
    runs = _cli_runs()
    start = time.perf_counter()
    codes = Counter()
    for i in range(CLI_MUTANTS):
        rng = random.Random(f"cli-fuzz:{i}")
        argv, docs = runs[i % len(runs)]
        docs = copy.deepcopy(docs)
        for name in rng.sample(sorted(docs), rng.randint(1, len(docs))):
            ps = [(n, k) for n, k in _spots(docs[name]) if k == "p"]
            if ps and rng.random() < 0.5:
                # Well-formed but for the masses: reaches the inference guards.
                for node, key in rng.sample(ps, min(len(ps), rng.randint(1, 3))):
                    node[key] = rng.choice(WEIGHTS)
            else:
                _mutate(rng, docs[name])
        paths = {name: tmp_path / f"{name}.json" for name in docs}
        for name, doc in docs.items():
            text = json.dumps(doc)
            if rng.random() < 0.05:
                text = text[: rng.randrange(len(text))]  # no longer JSON
            paths[name].write_text(text, "utf-8")
        try:
            code = cli.main([str(paths[a]) if a in paths else a for a in argv])
        except Exception as exc:
            raise AssertionError(f"CLI mutant {i} of {argv[0]}: {exc!r}") from exc
        out, err = capsys.readouterr()
        where = f"CLI mutant {i} of {argv[0]}: exit {code}, {err[:200]!r}"
        if code == 0:
            assert out and not err, where
        else:
            m = re.match(r"error: (\w+): ", err)
            kind = getattr(errors, m[1], None) if m else None
            assert code in (1, 2) and not out and isinstance(kind, type), where
            assert issubclass(kind, PmcError), where
            assert (code == 2) == issubclass(kind, InferenceUndefined), where
        codes[code] += 1
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, f"{CLI_MUTANTS} mutants took {elapsed:.2f} s"
    # 61 succeed, 338 are refused and 1 is undefined (exit 2).
    assert codes[0] and codes[2] and codes[1] > CLI_MUTANTS // 2, codes
