"""Seeded random instances and a registry of exactly checked laws.

Every law is a function from a deterministic RNG to either None (the
instance passed) or a counterexample payload, which codec.to_text
writes, holding the generated data and both sides of the failed
equation.  check_law runs a law over derived per-case seeds, so
identical (law, instances, seed) triples produce byte-identical reports.

A law the paper states as an equation between string diagrams is one
here: each side is a term with random kernels as Gen leaves, which _eq
evaluates by diagram.evaluate, the one statement of what a diagram
means.  A law about a kernel operation itself calls it directly.

Randomness only ever flows through Random.random(), whose sequence is
guaranteed stable across CPython versions; all other draws are derived
from it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from random import Random
from typing import Callable, Optional

from . import codec
from . import conditioning as C
from . import diagram as D
from . import edt as E
from . import kernel as K
from .errors import (
    BadDensity,
    BadParameter,
    ImpossibleEvidence,
    NoFeasibleAction,
    UnknownLaw,
)
from .diagram import Compare, Compose, Copy, Discard, Gen, Id, Observe, Swap, Tensor
from .kernel import Alphabet, Obj, SubKernel, UNIT

MAX_DENOMINATOR = 64
DEFAULT_SEED = 7
DEFAULT_CASES = 200

_LABELS = ("a", "b", "c", "d")
Side = SubKernel | D.Term  # one side of an equation: a kernel, or a diagram


def _stable_rng(*parts) -> Random:
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return Random(int.from_bytes(digest[:8], "big"))


def _rand_int(rng: Random, lo: int, hi: int) -> int:
    """Uniform integer in [lo, hi], derived from rng.random() only."""
    if hi <= lo:
        return lo
    return lo + int(rng.random() * (hi - lo + 1))


def _choice(rng: Random, seq):
    return seq[_rand_int(rng, 0, len(seq) - 1)]


def _describe_obj(o: Obj) -> str:
    return ";".join(f"{a.name}:{','.join(a.labels)}" for a in o.factors)


def _composition(rng: Random, total: int, parts: int) -> list[int]:
    """`parts` positive integers summing to `total` (requires total >= parts)."""
    out = []
    remaining = total
    for i in range(parts - 1):
        hi = remaining - (parts - 1 - i)
        w = _rand_int(rng, 1, hi)
        out.append(w)
        remaining -= w
    out.append(remaining)
    return out


def _rand_kernel(
    rng: Random,
    dom: Obj,
    cod: Obj,
    density: Optional[Fraction] = None,
    total: bool = False,
) -> SubKernel:
    """A random kernel: each entry is nonzero with probability `density`,
    and each row mass is a rational <= 1 with denominator <= 64.

    A density of None is drawn from 4/10 ... 10/10, or is 7/10 when
    `total`.  A total kernel gives a row with no drawn entry one output
    picked at random, and every row mass one.  Each row is built as the
    drawn integer weights over the drawn denominator, reduced.
    """
    if density is None:
        density = Fraction(7 if total else _rand_int(rng, 4, 10), 10)
    rows: dict = {}
    outcomes = list(cod.outcomes())
    # random() is k / 2**53 for an integer k, so random() < density iff
    # k < ceil(density * 2**53) = c, iff random() < c / 2**53, a float
    # that is exact because 0 <= c <= 2**53.  No Fraction per draw.
    cut = -(-density.numerator * 2**53 // density.denominator) / 2**53
    for x in dom.outcomes():
        included = [y for y in outcomes if rng.random() < cut]
        if not included:
            if not total:
                continue
            included = [_choice(rng, outcomes)]
        n = len(included)
        den = _rand_int(rng, max(2, n), MAX_DENOMINATOR)
        mass = den if total or rng.random() < 0.5 else _rand_int(rng, n, den)
        weights = _composition(rng, mass, n)
        c = gcd(den, *weights)
        rows[x] = den // c, {y: w // c for y, w in zip(included, weights)}
    return K._trusted_kernel(dom, cod, rows)


def random_kernel(seed: int, dom: Obj, cod: Obj, density) -> SubKernel:
    """A reproducible random subdistribution kernel.

    Deterministic in (seed, dom, cod, density); each row mass is a
    rational <= 1 with denominator <= 64, and roughly a `density`
    fraction of all entries is nonzero.  density is read by
    parse_fraction; outside [0, 1] it raises BadDensity.
    """
    density = K.parse_fraction(density)
    if not 0 <= density <= 1:
        raise BadDensity(f"density {density} outside [0, 1]")
    rng = _stable_rng(
        "kernel", seed, _describe_obj(dom), _describe_obj(cod), density
    )
    return _rand_kernel(rng, dom, cod, density)


def _rand_deterministic(
    rng: Random, dom: Obj, cod: Obj, partial: bool = False
) -> SubKernel:
    outcomes = list(cod.outcomes())
    return K.deterministic(
        dom,
        cod,
        lambda x: None if partial and rng.random() < 0.3 else _choice(rng, outcomes),
    )


def _rand_alphabet(rng: Random, index: int, max_size: int = 4) -> Alphabet:
    size = _rand_int(rng, 1, max_size)
    return Alphabet(f"A{index}", _LABELS[:size])


def _rand_obj(rng: Random, index: int, max_size: int = 4) -> Obj:
    """Mostly one alphabet of size <= max_size, occasionally two small
    ones or the unit, so edge cases stay represented."""
    r = rng.random()
    if r < 0.08:
        return UNIT
    if r < 0.25:
        return Obj(
            (
                _rand_alphabet(rng, index, min(2, max_size)),
                _rand_alphabet(rng, index + 1, min(2, max_size)),
            )
        )
    return Obj((_rand_alphabet(rng, index, max_size),))


def _rand_point(rng: Random, at: Obj) -> tuple[str, ...]:
    return tuple(_choice(rng, a.labels) for a in at.factors)


# -- counterexample payloads -------------------------------------------------


def _as_payload(value):
    if isinstance(value, Fraction):
        return codec.format_fraction(value)
    if isinstance(value, Obj):
        return codec.obj_to_json(value)
    if isinstance(value, E.DecisionProblem):
        return codec.problem_to_json(value)
    return value


def _mismatch(equation: str, **data) -> dict:
    return {"equation": equation, **{k: _as_payload(v) for k, v in data.items()}}


def _eq(equation: str, lhs: Side, rhs: Side, **data) -> Optional[dict]:
    """None if the two sides are equal kernels, else the mismatch; a side
    that is a term is evaluated by diagram.evaluate first."""
    lhs, rhs = (s if isinstance(s, SubKernel) else D.evaluate(s) for s in (lhs, rhs))
    if lhs == rhs:
        return None
    return _mismatch(equation, lhs=lhs, rhs=rhs, **data)


def _first(*results: Optional[dict]) -> Optional[dict]:
    for r in results:
        if r is not None:
            return r
    return None


# -- registry ----------------------------------------------------------------

LawFn = Callable[[Random], Optional[dict]]
REGISTRY: dict[str, LawFn] = {}


def law(name: str) -> Callable[[LawFn], LawFn]:
    def register(fn: LawFn) -> LawFn:
        REGISTRY[name] = fn
        return fn

    return register


@dataclass(frozen=True)
class Report:
    law: str
    instances: int
    passes: int
    failures: int
    counterexample: Optional[dict]


def check_law(name: str, instances: int, seed: int = DEFAULT_SEED) -> Report:
    """Run one registered law over `instances` derived cases.

    The counterexample, if any, is the lowest-index failing case with
    all generated kernels serialized in the CLI kernel schema.
    """
    if name not in REGISTRY:
        raise UnknownLaw(f"unknown law {name!r}; known: {sorted(REGISTRY)}")
    if instances < 0:
        raise BadParameter(f"instances {instances} is negative")
    fn = REGISTRY[name]
    failures = 0
    counterexample: Optional[dict] = None
    for case in range(instances):
        payload = fn(_stable_rng("law", name, seed, case))
        if payload is not None:
            failures += 1
            if counterexample is None:
                counterexample = {"case": case, **payload}
    return Report(name, instances, instances - failures, failures, counterexample)


def check_all(instances: int, seed: int = DEFAULT_SEED) -> list[Report]:
    return [check_law(name, instances, seed) for name in REGISTRY]


# -- kernel category laws ----------------------------------------------------


@law("category")
def _law_category(rng: Random) -> Optional[dict]:
    x, y = _rand_obj(rng, 0), _rand_obj(rng, 2)
    z, w = _rand_obj(rng, 4), _rand_obj(rng, 6)
    f = _rand_kernel(rng, x, y)
    g = _rand_kernel(rng, y, z)
    h = _rand_kernel(rng, z, w)
    F, G, H = Gen("f", f), Gen("g", g), Gen("h", h)
    return _first(
        _eq(
            "(f;g);h = f;(g;h)",
            Compose(Compose(F, G), H),
            Compose(F, Compose(G, H)),
            f=f, g=g, h=h,
        ),
        _eq("id;f = f", Compose(Id(x), F), f, f=f),
        _eq("f;id = f", Compose(F, Id(y)), f, f=f),
    )


@law("comonoid")
def _law_comonoid(rng: Random) -> Optional[dict]:
    x = _rand_obj(rng, 0)
    cp, ident = Copy(x), Id(x)
    return _first(
        _eq(
            "copy;(copy (x) id) = copy;(id (x) copy)",
            Compose(cp, Tensor(cp, ident)),
            Compose(cp, Tensor(ident, cp)),
            at=x,
        ),
        _eq(
            "copy;(discard (x) id) = id",
            Compose(cp, Tensor(Discard(x), ident)),
            ident,
            at=x,
        ),
        _eq(
            "copy;(id (x) discard) = id",
            Compose(cp, Tensor(ident, Discard(x))),
            ident,
            at=x,
        ),
        _eq("copy;swap = copy", Compose(cp, Swap(x, x)), cp, at=x),
    )


@law("uniformity")
def _law_uniformity(rng: Random) -> Optional[dict]:
    # Single-factor pieces keep the doubled comparator domains small.
    x = Obj((_rand_alphabet(rng, 0),)) if rng.random() < 0.9 else UNIT
    y = Obj((_rand_alphabet(rng, 1),)) if rng.random() < 0.9 else UNIT
    xy = x.tensor(y)
    return _first(
        _eq(
            "copy(X(x)Y) = (copy X (x) copy Y);(id (x) swap (x) id)",
            Copy(xy),
            Compose(Tensor(Copy(x), Copy(y)), Tensor(Id(x), Swap(x, y), Id(y))),
            at=xy,
        ),
        _eq(
            "discard(X(x)Y) = discard X (x) discard Y",
            Discard(xy),
            Tensor(Discard(x), Discard(y)),
            at=xy,
        ),
        _eq(
            "compare(X(x)Y) = (id (x) swap (x) id);(compare X (x) compare Y)",
            Compare(xy),
            Compose(
                Tensor(Id(x), Swap(y, x), Id(y)), Tensor(Compare(x), Compare(y))
            ),
            at=xy,
        ),
        _eq("copy(I) = id(I)", Copy(UNIT), Id(UNIT)),
        _eq("compare(I) = id(I)", Compare(UNIT), Id(UNIT)),
    )


@law("frobenius")
def _law_frobenius(rng: Random) -> Optional[dict]:
    x = _rand_obj(rng, 0, max_size=3)
    cp, cmp_, ident = Copy(x), Compare(x), Id(x)
    return _first(
        _eq(
            "(copy (x) id);(id (x) compare) = compare;copy",
            Compose(Tensor(cp, ident), Tensor(ident, cmp_)),
            Compose(cmp_, cp),
            at=x,
        ),
        _eq(
            "(id (x) copy);(compare (x) id) = compare;copy",
            Compose(Tensor(ident, cp), Tensor(cmp_, ident)),
            Compose(cmp_, cp),
            at=x,
        ),
        _eq("copy;compare = id", Compose(cp, cmp_), ident, at=x),
        _eq(
            "(compare (x) id);compare = (id (x) compare);compare",
            Compose(Tensor(cmp_, ident), cmp_),
            Compose(Tensor(ident, cmp_), cmp_),
            at=x,
        ),
        _eq("swap;compare = compare", Compose(Swap(x, x), cmp_), cmp_, at=x),
    )


@law("interchange")
def _law_interchange(rng: Random) -> Optional[dict]:
    a, b, c = _rand_obj(rng, 0), _rand_obj(rng, 2), _rand_obj(rng, 4)
    d, e, w = _rand_obj(rng, 6), _rand_obj(rng, 8), _rand_obj(rng, 10)
    f = _rand_kernel(rng, a, b)
    g = _rand_kernel(rng, c, d)
    h = _rand_kernel(rng, b, e)
    k = _rand_kernel(rng, d, w)
    F, G, H, KK = Gen("f", f), Gen("g", g), Gen("h", h), Gen("k", k)
    return _eq(
        "(f (x) g);(h (x) k) = (f;h) (x) (g;k)",
        Compose(Tensor(F, G), Tensor(H, KK)),
        Tensor(Compose(F, H), Compose(G, KK)),
        f=f, g=g, h=h, k=k,
    )


@law("swap-naturality")
def _law_swap_naturality(rng: Random) -> Optional[dict]:
    a, b = _rand_obj(rng, 0), _rand_obj(rng, 2)
    c, d = _rand_obj(rng, 4), _rand_obj(rng, 6)
    f = _rand_kernel(rng, a, b)
    g = _rand_kernel(rng, c, d)
    F, G = Gen("f", f), Gen("g", g)
    return _eq(
        "(f (x) g);swap = swap;(g (x) f)",
        Compose(Tensor(F, G), Swap(b, d)),
        Compose(Swap(a, c), Tensor(G, F)),
        f=f, g=g,
    )


# -- conditioning laws -------------------------------------------------------


def _rand_joint(rng: Random) -> tuple[SubKernel, int]:
    """A random kernel with a multi-factor codomain plus a split point."""
    x = _rand_obj(rng, 0, max_size=3)
    n_cod = _choice(rng, (1, 2, 2, 3))
    cod = Obj(
        tuple(_rand_alphabet(rng, 10 + i, max_size=3) for i in range(n_cod))
    )
    f = _rand_kernel(rng, x, cod)
    split = _rand_int(rng, 0, n_cod)
    return f, split


@law("splitting")
def _law_splitting(rng: Random) -> Optional[dict]:
    f, split = _rand_joint(rng)
    m = C.marginal(f, split)
    c = C.conditional(f, split)
    return _eq(
        "cond_compose(marginal, conditional) = f",
        C.cond_compose(m, c),
        f,
        f=f, split=split, marginal=m, conditional=c,
    )


@law("quasi-total-conditional")
def _law_quasi_total_conditional(rng: Random) -> Optional[dict]:
    f, split = _rand_joint(rng)
    c = C.conditional(f, split)
    if not K.is_quasi_total(c):
        return _mismatch(
            "conditional is quasi-total", f=f, split=split, conditional=c
        )
    bad = [list(x) for x in c.dom.outcomes() if c.mass(x) not in (0, 1)]
    if bad:
        return _mismatch(
            "every conditional row has mass 0 or 1",
            f=f, split=split, conditional=c, rows=bad,
        )
    return None


@law("marginal-by-discard")
def _law_marginal_by_discard(rng: Random) -> Optional[dict]:
    f, split = _rand_joint(rng)
    kept = Obj(f.cod.factors[:split])
    dropped = Obj(f.cod.factors[split:])
    return _eq(
        "marginal(f, k) = f;(id (x) discard)",
        C.marginal(f, split),
        Compose(Gen("f", f), Tensor(Id(kept), Discard(dropped))),
        f=f, split=split,
    )


@law("normalisation-equation")
def _law_normalisation_equation(rng: Random) -> Optional[dict]:
    x = _rand_obj(rng, 0)
    f = _rand_kernel(rng, x, _rand_obj(rng, 2))
    fails = Compose(Gen("f", f), Discard(f.cod))
    return _eq(
        "f = copy;(normalise(f) (x) (f;discard))",
        f,
        Compose(Copy(x), Tensor(Gen("normalise(f)", C.normalise(f)), fails)),
        f=f,
    )


@law("normalisation-idempotent")
def _law_normalisation_idempotent(rng: Random) -> Optional[dict]:
    f = _rand_kernel(rng, _rand_obj(rng, 0), _rand_obj(rng, 2))
    nf = C.normalise(f)
    return _eq("normalise(normalise(f)) = normalise(f)", C.normalise(nf), nf, f=f)


@law("prop30-conditional-of-normalisation")
def _law_prop30(rng: Random) -> Optional[dict]:
    f, split = _rand_joint(rng)
    return _first(
        _eq(
            "conditional(normalise(f), k) = conditional(f, k)",
            C.conditional(C.normalise(f), split),
            C.conditional(f, split),
            f=f, split=split,
        ),
        _eq(
            "cond_compose(marginal(f, k), conditional(normalise(f), k)) = f",
            C.cond_compose(
                C.marginal(f, split), C.conditional(C.normalise(f), split)
            ),
            f,
            f=f, split=split,
        ),
    )


@law("bayes-inversion-equation")
def _law_bayes_inversion(rng: Random) -> Optional[dict]:
    x = Obj((_rand_alphabet(rng, 0),))
    y = Obj((_rand_alphabet(rng, 1),))
    prior = _rand_kernel(rng, UNIT, x)
    channel = _rand_kernel(rng, x, y)
    inv = C.bayes_invert(channel, prior)
    P, Ch = Gen("prior", prior), Gen("channel", channel)
    return _eq(
        "prior;copy;(id (x) c) = prior;c;copy;(inv (x) id)",
        Compose(P, Copy(x), Tensor(Id(x), Ch)),
        Compose(P, Ch, Copy(y), Tensor(Gen("inversion", inv), Id(y))),
        prior=prior, channel=channel, inversion=inv,
    )


@law("compositional-inversion")
def _law_compositional_inversion(rng: Random) -> Optional[dict]:
    x = Obj((_rand_alphabet(rng, 0, max_size=3),))
    y = Obj((_rand_alphabet(rng, 1, max_size=3),))
    z = Obj((_rand_alphabet(rng, 2, max_size=3),))
    prior = _rand_kernel(rng, UNIT, x)
    c = _rand_kernel(rng, x, y)
    d = _rand_kernel(rng, y, z)
    # Composite candidate inverse: invert d against the pushed prior,
    # then invert c against the original prior.
    h = K.compose(C.bayes_invert(d, K.compose(prior, c)), C.bayes_invert(c, prior))
    P, cd = Gen("prior", prior), Compose(Gen("c", c), Gen("d", d))
    return _eq(
        "inversion of c;d factors as inversion(d);inversion(c)",
        Compose(P, Copy(x), Tensor(Id(x), cd)),
        Compose(P, cd, Copy(z), Tensor(Gen("composite_inverse", h), Id(z))),
        prior=prior, c=c, d=d, composite_inverse=h,
    )


@law("synthetic-bayes")
def _law_synthetic_bayes(rng: Random) -> Optional[dict]:
    x = Obj((_rand_alphabet(rng, 0),))
    y = Obj((_rand_alphabet(rng, 1),))
    prior = _rand_kernel(rng, UNIT, x)
    channel = _rand_kernel(rng, x, y)
    point = _rand_point(rng, y)
    observed = Compose(Gen("channel", channel), Observe(y, point))
    scalar = K.compose(prior, channel).prob((), point)
    inv_row = K.state_at(C.bayes_invert(channel, prior), point)
    return _eq(
        "constrained state = scalar * inversion row",
        Compose(Gen("prior", prior), Copy(x), Tensor(Id(x), observed)),
        K.tensor(K.state(UNIT, {(): scalar}), inv_row),
        prior=prior, channel=channel, point=point, scalar=scalar,
    )


@law("pearl-equals-jeffrey")
def _law_pearl_equals_jeffrey(rng: Random) -> Optional[dict]:
    x = Obj((_rand_alphabet(rng, 0),))
    y = Obj((_rand_alphabet(rng, 1),))
    prior = _rand_kernel(rng, UNIT, x)
    channel = _rand_kernel(rng, x, y)
    point = _rand_point(rng, y)
    predicate = D.observe_kernel(y, point)
    evidence = K.dirac(y, point)
    try:
        via_pearl = C.pearl_update(prior, channel, predicate)
    except ImpossibleEvidence:
        via_pearl = None
    try:
        via_jeffrey = C.jeffrey_update(prior, channel, evidence)
    except ImpossibleEvidence:
        via_jeffrey = None
    if (via_pearl is None) != (via_jeffrey is None):
        return _mismatch(
            "ImpossibleEvidence fires on both update rules together",
            prior=prior, channel=channel, point=point,
            pearl_defined=via_pearl is not None,
            jeffrey_defined=via_jeffrey is not None,
        )
    if via_pearl is None:
        return None
    return _eq(
        "pearl update = jeffrey update on deterministic evidence",
        via_pearl,
        via_jeffrey,
        prior=prior, channel=channel, point=point,
    )


@law("quasi-total-iff-deterministic-failure")
def _law_quasi_total_iff(rng: Random) -> Optional[dict]:
    x, y = _rand_obj(rng, 0), _rand_obj(rng, 2)
    f = _rand_kernel(rng, x, y)
    candidates = (f, C.normalise(f), _rand_deterministic(rng, x, y, partial=True))
    for g in candidates:
        qt = K.is_quasi_total(g)
        det_failure = K.is_deterministic(K.failure_probability(g))
        if qt != det_failure:
            return _mismatch(
                "quasi-total iff failure probability deterministic",
                kernel=g, quasi_total=qt, deterministic_failure=det_failure,
            )
    return None


# -- predicate and determinism laws -----------------------------------------


@law("predicate-diagram-agreement")
def _law_predicate_diagram(rng: Random) -> Optional[dict]:
    x, y = _rand_obj(rng, 0), _rand_obj(rng, 2)
    f = _rand_kernel(rng, x, y)
    for g in (f, C.normalise(f), _rand_kernel(rng, x, y, total=True)):
        G = Gen("f", g)
        fails = Compose(G, Discard(g.cod))
        total_eq = D.evaluate(fails) == D.evaluate(Discard(g.dom))
        if K.is_total(g) != total_eq:
            return _mismatch(
                "is_total agrees with f;discard = discard",
                kernel=g, predicate=K.is_total(g), diagram=total_eq,
            )
        det_eq = D.evaluate(Compose(G, Copy(g.cod))) == D.evaluate(
            Compose(Copy(g.dom), Tensor(G, G))
        )
        if K.is_deterministic(g) != det_eq:
            return _mismatch(
                "is_deterministic agrees with f;copy = copy;(f (x) f)",
                kernel=g, predicate=K.is_deterministic(g), diagram=det_eq,
            )
        qt_eq = g == D.evaluate(Compose(Copy(g.dom), Tensor(G, fails)))
        if K.is_quasi_total(g) != qt_eq:
            return _mismatch(
                "is_quasi_total agrees with copy;(f (x) (f;discard)) = f",
                kernel=g, predicate=K.is_quasi_total(g), diagram=qt_eq,
            )
    return None


@law("deterministic-copyable")
def _law_deterministic_copyable(rng: Random) -> Optional[dict]:
    x, y = _rand_obj(rng, 0), _rand_obj(rng, 2)
    for partial in (False, True):
        f = _rand_deterministic(rng, x, y, partial=partial)
        F = Gen("f", f)
        result = _eq(
            "f;copy = copy;(f (x) f) for deterministic f",
            Compose(F, Copy(y)),
            Compose(Copy(x), Tensor(F, F)),
            f=f,
        )
        if result is not None:
            return result
    return None


# -- diagram laws ------------------------------------------------------------


@law("observe-axiom")
def _law_observe_axiom(rng: Random) -> Optional[dict]:
    y = _rand_obj(rng, 0)
    point = _rand_point(rng, y)
    hit = _eq(
        "dirac(y);observe(y) = id(I)",
        Compose(Gen("dirac", K.dirac(y, point)), Observe(y, point)),
        Id(UNIT),
        at=y, point=point,
    )
    if hit is not None:
        return hit
    if y.size > 1:
        other = next(o for o in y.outcomes() if o != point)
        return _eq(
            "dirac(z);observe(y) = 0 for z != y",
            Compose(Gen("dirac", K.dirac(y, other)), Observe(y, point)),
            K.state(UNIT, {}),
            at=y, point=point, other=other,
        )
    return None


@law("embedding-faithfulness")
def _law_embedding_faithfulness(rng: Random) -> Optional[dict]:
    y = _rand_obj(rng, 0)
    point = _rand_point(rng, y)
    direct = D.evaluate(Observe(y, point))
    encoded = D.evaluate(D.observe_as_comparator(y, point))
    result = _eq(
        "observe = (id (x) point);compare;discard",
        direct,
        encoded,
        at=y, point=point,
    )
    if result is not None:
        return result
    if y.size > 1:
        other = next(o for o in y.outcomes() if o != point)
        if D.evaluate(Observe(y, other)) == direct:
            return _mismatch(
                "distinct points give distinct observations",
                at=y, point=point, other=other,
            )
    return None


# -- random constrained-process terms ---------------------------------------


def _alphabet_pool(rng: Random) -> list[Alphabet]:
    pool = []
    for i in range(3):
        size = _rand_int(rng, 1, 3)
        pool.append(Alphabet(f"T{i}", _LABELS[:size]))
    return pool


def _pool_obj(rng: Random, pool, max_width: int = 3, allow_unit: bool = True):
    weights = (0, 1, 1, 1, 2, 2) if allow_unit else (1, 1, 1, 2, 2)
    n = min(_choice(rng, weights), max_width)
    return Obj(tuple(_choice(rng, pool) for _ in range(n)))


def _rand_leaf(rng: Random, dom: Obj, pool, counter) -> tuple[D.Term, Obj]:
    options = ["gen", "gen", "id", "discard", "observe"]
    if 2 * len(dom.factors) <= 3:
        options.append("copy")
    if len(dom.factors) >= 2:
        options.append("swap")
    choice = _choice(rng, options)
    if choice == "gen":
        cod = _pool_obj(rng, pool, max_width=2)
        counter[0] += 1
        k = _rand_kernel(rng, dom, cod, total=True)
        return Gen(f"g{counter[0]}", k), cod
    if choice == "id":
        return Id(dom), dom
    if choice == "discard":
        return Discard(dom), UNIT
    if choice == "observe":
        return Observe(dom, _rand_point(rng, dom)), UNIT
    if choice == "copy":
        return Copy(dom), dom.tensor(dom)
    split = _rand_int(rng, 1, len(dom.factors) - 1)
    left, right = Obj(dom.factors[:split]), Obj(dom.factors[split:])
    return Swap(left, right), right.tensor(left)


def _rand_term(
    rng: Random, depth: int, dom: Optional[Obj], pool, counter
) -> tuple[D.Term, Obj]:
    if dom is None:
        dom = _pool_obj(rng, pool)
    if depth <= 0:
        return _rand_leaf(rng, dom, pool, counter)
    r = rng.random()
    if r < 0.45:
        first, mid = _rand_term(rng, depth - 1, dom, pool, counter)
        second, cod = _rand_term(rng, depth - 1, mid, pool, counter)
        return Compose(first, second), cod
    if r < 0.7 and len(dom.factors) >= 1:
        split = _rand_int(rng, 0, len(dom.factors))
        left, cl = _rand_term(
            rng, depth - 1, Obj(dom.factors[:split]), pool, counter
        )
        right, cr = _rand_term(
            rng, depth - 1, Obj(dom.factors[split:]), pool, counter
        )
        if len(cl.factors) + len(cr.factors) <= 3:
            return Tensor(left, right), cl.tensor(cr)
    return _rand_leaf(rng, dom, pool, counter)


def random_cproc_term(seed: int, depth: int = 5) -> D.Term:
    """A reproducible random constrained-process term: total generators,
    structural maps, and observations; never a comparator."""
    rng = _stable_rng("term", seed, depth)
    term, _ = _rand_term(rng, depth, None, _alphabet_pool(rng), [0])
    return term


@law("normal-form-soundness")
def _law_normal_form(rng: Random) -> Optional[dict]:
    pool = _alphabet_pool(rng)
    depth = _rand_int(rng, 1, 4)
    term, _ = _rand_term(rng, depth, None, pool, [0])
    nf = D.normal_form(term)
    direct = D.evaluate(term)
    result = _eq(
        "eval_normal_form(normal_form(t)) = evaluate(t)",
        D.eval_normal_form(nf),
        direct,
        g=nf.g, h=nf.h,
    )
    if result is not None:
        return result
    norm = C.normalise(direct)
    for x in nf.h.dom.outcomes():
        if nf.h.prob(x, D.YES) > 0 and nf.g.row(x) != norm.row(x):
            return _mismatch(
                "g matches normalise(evaluate(t)) on positive-success rows",
                g=nf.g, h=nf.h, normalised=norm, at_input=x,
            )
    return None


# -- decision problems -------------------------------------------------------


def _rand_problem(rng: Random) -> E.DecisionProblem:
    """A random decision problem: total environment and agent, a partial
    consequence, and alphabets of at most four labels.  Some agents are
    deterministic, so other actions get mass zero, and about one
    consequence in seven fails everywhere, so no action is feasible."""
    cond = _rand_obj(rng, 0, max_size=3)
    seen = UNIT if rng.random() < 0.3 else Obj((_rand_alphabet(rng, 2, 3),))
    actions = Alphabet("action", _LABELS[: _rand_int(rng, 1, 4)])
    a_obj = Obj((actions,))
    u_obj = Obj((_rand_alphabet(rng, 3),))
    environment = _rand_kernel(rng, UNIT, cond.tensor(seen), total=True)
    if rng.random() < 0.3:
        agent = _rand_deterministic(rng, seen, a_obj)
    else:
        agent = _rand_kernel(rng, seen, a_obj, total=True)
    density = Fraction(0) if rng.random() < 0.15 else None
    consequence = _rand_kernel(rng, cond.tensor(a_obj), u_obj, density)
    utilities = {
        u: Fraction(_rand_int(rng, -20, 20), _rand_int(rng, 1, 4))
        for u in u_obj.factors[0].labels
    }
    return E.DecisionProblem(
        "random", actions, environment, agent, consequence, utilities
    )


def observed_action_state(
    problem: E.DecisionProblem, joint: SubKernel, action: str
) -> SubKernel:
    """The paper's construction of an action's utility state: the
    conditioned model `joint` : I -> U (x) A of `problem` composed with
    id_U (x) observe(action)."""
    constrain = Tensor(Id(problem.utility_obj), Observe(problem.action_obj, (action,)))
    return D.evaluate(Compose(Gen("model", joint), constrain))


@law("solver-observe-agreement")
def _law_solver_observe(rng: Random) -> Optional[dict]:
    p = _rand_problem(rng)
    joint = E.conditioned_model(p)
    observed = {
        a: observed_action_state(p, joint, a) for a in p.actions.labels
    }
    for a, st in observed.items():
        result = _eq(
            "action_state(p, a) = model;(id (x) observe(a))",
            E.action_state(p, a),
            st,
            problem=p, action=a,
        )
        if result is not None:
            return result
    feasible = any(st.mass(()) != 0 for st in observed.values())
    try:
        table = E.solve(p).table
    except NoFeasibleAction:
        table = None
    if (table is not None) != feasible:
        return _mismatch(
            "solve raises NoFeasibleAction iff every observed mass is 0",
            problem=p, raised=table is None,
        )
    for v in table or ():
        st = observed[v.action]
        mass = st.mass(())
        eu = E.expected_utility(st, p.utilities) if mass else None
        if (v.mass, v.expected_utility) != (mass, eu):
            return _mismatch(
                "solve table = (mass, EU) of the observed states",
                problem=p, action=v.action,
                solved_mass=v.mass, solved_eu=v.expected_utility,
                observed_mass=mass, observed_eu=eu,
            )
    return None
