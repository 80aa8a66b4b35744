"""Exact work counts as a ratchet.

golden/work_counts.json pins, for a few fixed inputs, how many Fractions
are constructed and how many times compose, tensor, relabel,
deterministic, parse_fraction, _ratio, the conversion of every
rational read, _times, the binary product a deferred tensor product's
rows are folded from (once per factor after the first, and never where
the product is only written), and _numbered_row, which compose calls
once per output of f's general rows (denominator not 1) that reaches a
row of g (a compose with a partial function g calls relabel instead),
are called.
Counts of work are exact where timings are noisy, so a route that does
more work fails here even when no benchmark could see it.  Each call
count must equal its pin, so a change that lowers a count lowers its
pin in the same change and leaves no slack, and one that raises a
count says why.  The Fraction counts may read lower than their pins:
under Python 3.12 and later, Fraction arithmetic builds its results
without calling Fraction.__new__.  So the pins are taken under 3.11,
and printing them under any other Python is refused.  Print the
current counts with

    PYTHONPATH=src python3.11 tests/test_work_counts.py > tests/golden/work_counts.json
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from pmc import codec, edt, laws
from pmc import kernel as K
from pmc.diagram import evaluate, infer_type

GOLDEN = Path(__file__).parent / "golden"
COUNTED = (
    "compose",
    "tensor",
    "relabel",
    "deterministic",
    "parse_fraction",
    "_ratio",
    "_times",
    "_numbered_row",
)
# Three corpus problems as their JSON documents: the problem reader's work.
PROBLEMS = ("corpus_newcomb", "corpus_monty-hall", "corpus_smoking-lesion")


def _eval(term: str, env: str) -> None:
    alphabets, kernels = codec.env_from_json(
        json.loads((GOLDEN / f"{env}.json").read_text("utf-8"))
    )
    doc = json.loads((GOLDEN / f"{term}.json").read_text("utf-8"))
    t = codec.term_from_json(doc, alphabets, kernels)
    infer_type(t)
    codec.to_text(evaluate(t))


def _corpus() -> None:
    for build in edt.CORPUS.values():
        edt.solve(build())


def _read_problems() -> None:
    for name in PROBLEMS:
        codec.problem_from_json(
            json.loads((GOLDEN / f"{name}.json").read_text("utf-8"))
        )


WORKLOADS = {
    "laws_50_seed7": lambda: laws.check_all(50, 7),
    "dense_chain": lambda: _eval("dense_chain", "dense_env"),
    "wide_tensor": lambda: _eval("wide_tensor", "wide_env"),
    "partial_chain": lambda: _eval("partial_chain", "partial_env"),
    "corpus": _corpus,
    "corpus_json": _read_problems,
}


def work_counts(setattr_) -> dict[str, dict[str, int]]:
    """Each workload's counts, with the counters installed by
    setattr_(owner, name, value), as monkeypatch.setattr installs them."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # A name a module imported from kernel is counted there too: codec
    # calls parse_fraction by the name it imported.
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "pmc"]
    for name in COUNTED:
        fn = getattr(K, name)
        wrapper = counted(name, fn)
        for module in modules:
            if getattr(module, name, None) is fn:
                setattr_(module, name, wrapper)
    setattr_(Fraction, "__new__", counted("Fraction", Fraction.__new__))
    out = {}
    for workload, run in WORKLOADS.items():
        counts.clear()
        run()
        out[workload] = {name: counts[name] for name in ("Fraction", *COUNTED)}
    return out


def test_no_work_count_exceeds_its_pin(monkeypatch):
    pins = json.loads((GOLDEN / "work_counts.json").read_text("utf-8"))
    counts = work_counts(monkeypatch.setattr)
    assert counts.keys() == pins.keys()
    # Fraction may read lower than its pin (see the module docstring).
    off = {
        (workload, name): (n, pin)
        for workload, got in counts.items()
        for name, n in got.items()
        for pin in (pins[workload][name],)
        if n > pin or (n < pin and name != "Fraction")
    }
    assert not off, f"(workload, count): (counted, pinned) {off}"


if __name__ == "__main__":
    if sys.version_info[:2] != (3, 11):
        sys.stderr.write(
            "work counts are pinned under Python 3.11; under "
            f"{sys.version_info.major}.{sys.version_info.minor} the Fraction "
            "counts differ, so no pins are printed\n"
        )
        sys.exit(1)
    saved = []

    def install(owner, name, value):
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    try:
        sys.stdout.write(json.dumps(work_counts(install), indent=2) + "\n")
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)
