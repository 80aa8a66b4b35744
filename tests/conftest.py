"""Shared hypothesis strategies for small exact kernels."""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

from pmc.kernel import Alphabet, Obj, SubKernel, deterministic
from pmc.laws import random_kernel

settings.register_profile(
    "exact",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

_LABELS = ("a", "b", "c", "d")


@st.composite
def alphabets(draw, max_size: int = 3):
    size = draw(st.integers(1, max_size))
    ident = draw(st.integers(0, 7))
    return Alphabet(f"H{ident}", _LABELS[:size])


@st.composite
def objects(draw, max_factors: int = 2, max_size: int = 3, min_factors: int = 0):
    n = draw(st.integers(min_factors, max_factors))
    return Obj(tuple(draw(alphabets(max_size)) for _ in range(n)))


@st.composite
def kernels(draw, dom: Obj | None = None, cod: Obj | None = None) -> SubKernel:
    """A kernel from laws.random_kernel, the generator the law suite uses."""
    if dom is None:
        dom = draw(objects())
    if cod is None:
        cod = draw(objects())
    seed = draw(st.integers(0, 2**32 - 1))
    density = Fraction(draw(st.integers(0, 10)), 10)
    return random_kernel(seed, dom, cod, density)


@st.composite
def functions(draw, dom: Obj | None = None, cod: Obj | None = None) -> SubKernel:
    """The kernel of a drawn function dom -> cod, total or partial: each
    input goes to one drawn output, or in a partial one to none."""
    if dom is None:
        dom = draw(objects())
    if cod is None:
        cod = draw(objects())
    outputs = st.sampled_from(list(cod.outcomes()))
    if draw(st.booleans()):
        outputs = st.none() | outputs
    table = {x: draw(outputs) for x in dom.outcomes()}
    return deterministic(dom, cod, table.get)


@st.composite
def states(draw, cod: Obj | None = None) -> SubKernel:
    if cod is None:
        cod = draw(objects(min_factors=1))
    return draw(kernels(dom=Obj(()), cod=cod))
