"""Only kernel.py knows how a kernel's rows are stored.

Everything else goes through the kernel operations (compose, tensor,
relabel, bend, normalise, ...) and the accessors row, prob and mass.
Two exceptions are pinned: codec._write_kernel, the emission path that
writes the stored integer rows straight to text, and laws._rand_kernel,
the one generator that draws random kernels of general entries and
builds them directly as integer rows (random functions go through
kernel.deterministic).  A deferred product's factors (kernel.tensor)
are read only by codec._write_kernel, which writes a product from its
factors without building its rows.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "pmc"

ROWS_READERS = {("codec", "_write_kernel")}
FACTORS_READERS = {("codec", "_write_kernel")}
SUBKERNEL_BUILDERS = {("laws", "_rand_kernel")}


def _uses_outside_kernel():
    """(module, enclosing top-level function) of every `.rows` or
    `._rows` attribute, every `._factors` attribute and every
    SubKernel(...) or _trusted_kernel(...) call in src/pmc, kernel.py
    excepted."""
    rows, factors, builds = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "kernel":
            continue
        tree = ast.parse(path.read_text("utf-8"))
        for top in tree.body:
            where = (path.stem, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in ("rows", "_rows"):
                    rows.add(where)
                if isinstance(node, ast.Attribute) and node.attr == "_factors":
                    factors.add(where)
                if isinstance(node, ast.Call):
                    fn = node.func
                    name = getattr(fn, "attr", getattr(fn, "id", None))
                    if name in ("SubKernel", "_trusted_kernel"):
                        builds.add(where)
    return rows, factors, builds


def test_only_kernel_and_emission_read_rows():
    rows, _, _ = _uses_outside_kernel()
    assert rows == ROWS_READERS


def test_only_kernel_and_emission_read_factors():
    _, factors, _ = _uses_outside_kernel()
    assert factors == FACTORS_READERS


def test_only_kernel_and_law_generators_build_subkernels():
    _, _, builds = _uses_outside_kernel()
    assert builds == SUBKERNEL_BUILDERS
