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
"""

from __future__ import annotations

import copy
import json
import random
import time
from pathlib import Path

from pmc import codec
from pmc.diagram import evaluate, infer_type
from pmc.errors import PmcError

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
    """`pmc eval`'s steps on two documents: the kernel's text."""
    alphabets, kernels = codec.env_from_json(env_doc)
    term = codec.term_from_json(term_doc, alphabets, kernels)
    infer_type(term)
    return codec.to_text(evaluate(term))


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
    assert TERM_MUTANTS // 4 < refused < TERM_MUTANTS
