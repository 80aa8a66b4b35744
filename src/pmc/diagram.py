"""String-diagram terms and their kernel semantics.

Terms are a free syntax over generators, structural maps, and an
explicit observation node.  Composition and tensor are strictly
associative, so Compose and Tensor are n-ary: Compose(a, b, c) is one
node holding terms (a, b, c), with no bracketing to choose.  A subterm's
path is "t" followed by ".terms[i]" per level, as the codec's JSON paths
are "diagram" followed by the same steps, so an IllTyped message names
its place in the document.  evaluate interprets any well-typed term as
a subdistribution kernel; a top-level Tensor is one n-ary product of
its terms' kernels (kernel.tensor), and a composition chain's steps are
folded into the kernel built so far one Tensor term at a time, so no
step's wiring or tensor product is built (see _then).  normal_form
factors a term built from total generators and observations into a
pair (g, h): a total kernel g giving the outcome distribution where the
term can succeed, and a total Boolean kernel h giving the success
probability, so that the term's semantics is pointwise g * h(yes).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from . import kernel as K
from .errors import IllTyped, NonTotalGenerator
from .kernel import Alphabet, Obj, Outcome, PartialFn, SubKernel, UNIT, _as_outcome


@dataclass(frozen=True)
class Gen:
    """A named generator carrying its kernel."""

    name: str
    kernel: SubKernel


@dataclass(frozen=True)
class Id:
    obj: Obj


@dataclass(frozen=True, init=False)
class _Nary:
    terms: tuple["Term", ...]

    def __init__(self, *terms: "Term") -> None:
        if not terms:
            raise IllTyped(f"{type(self).__name__} of no terms")
        object.__setattr__(self, "terms", terms)


class Compose(_Nary):
    """terms[0] ; terms[1] ; ..., in diagrammatic order."""


class Tensor(_Nary):
    """terms[0] (x) terms[1] (x) ..., side by side."""


@dataclass(frozen=True)
class Copy:
    obj: Obj


@dataclass(frozen=True)
class Discard:
    obj: Obj


@dataclass(frozen=True)
class Swap:
    left: Obj
    right: Obj


@dataclass(frozen=True)
class Compare:
    obj: Obj


@dataclass(frozen=True)
class Observe:
    """Constrain a wire to a single outcome, consuming it."""

    obj: Obj
    point: Outcome

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "point", _as_outcome(self.point, self.obj, "point")
        )


Term = Gen | Id | Compose | Tensor | Copy | Discard | Swap | Compare | Observe


def infer_type(term: Term) -> tuple[Obj, Obj]:
    """Return (dom, cod) or raise IllTyped naming the offending subterm."""
    return _infer(term, "t")


def _wiring(term: Term) -> tuple[Obj, Obj, PartialFn] | None:
    """(dom, cod, fn) of a wiring node, fn its partial function, or None
    for a generator, Compose or Tensor.  Only the comparator (the partial
    Frobenius multiplication) and an observation are partial."""
    match term:
        case Id(x):
            return x, x, lambda a: a
        case Copy(x):
            return x, x.tensor(x), lambda a: a + a
        case Discard(x):
            return x, UNIT, lambda a: ()
        case Swap(x, y):
            n = len(x.factors)
            return x.tensor(y), y.tensor(x), lambda o: o[n:] + o[:n]
        case Compare(x):
            n = len(x.factors)
            return x.tensor(x), x, lambda o: o[:n] if o[:n] == o[n:] else None
        case Observe(x, point):
            return x, UNIT, lambda a: () if a == point else None
    return None


def _infer(term: Term, path: str) -> tuple[Obj, Obj]:
    match term:
        case Gen(_, k):
            return k.dom, k.cod
        case Compose(terms):
            dom, cod = _infer(terms[0], path + ".terms[0]")
            for i in range(1, len(terms)):
                at = f"{path}.terms[{i}]"
                d, c = _infer(terms[i], at)
                if cod != d:
                    raise IllTyped(f"at {at}: cannot compose {cod!r} into {d!r}")
                cod = c
            return dom, cod
        case Tensor(terms):
            dom = cod = UNIT
            for i, t in enumerate(terms):
                d, c = _infer(t, f"{path}.terms[{i}]")
                dom, cod = dom.tensor(d), cod.tensor(c)
            return dom, cod
    w = _wiring(term)
    if w is None:
        raise IllTyped(f"at {path}: not a term: {term!r}")
    return w[0], w[1]


def observe_kernel(at: Obj, point) -> SubKernel:
    """The costate at -> I succeeding exactly on the given outcome: the
    partial function x |-> () where x is the point."""
    return K.deterministic(*_wiring(Observe(at, point)))


def evaluate(term: Term) -> SubKernel:
    """Interpret a well-typed term as a kernel: a wiring node as the
    kernel of its partial function, a Tensor as one kernel.tensor of its
    terms' kernels (nested Tensors opened, so no partial product is
    built), and a Compose as a left fold (see _then) in which no step
    becomes a wiring kernel or a tensor product of its own."""
    match term:
        case Gen(_, k):
            return k
        case Compose(terms):
            return reduce(_then, terms[1:], evaluate(terms[0]))
        case Tensor():
            return K.tensor(*map(evaluate, _terms(term)))
    w = _wiring(term)
    if w is None:
        raise IllTyped(f"not a term: {term!r}")
    return K.deterministic(*w)


def _then(f: SubKernel, t: Term) -> SubKernel:
    """f ; t, for a term t of a composition chain.  By interchange,
    f ; (t1 (x) t2) = f ; (t1 (x) id) ; (id (x) t2), so each term of t
    (nested Tensors opened; t itself if it is no Tensor) acts in turn on
    the slice of f's codomain it reads, and the slice's offset then
    advances by the term's codomain width.  An Id is a type check only;
    a wiring node moves each output of f by its function on the slice
    (kernel.relabel), dropping the entry where that is undefined; any
    other term is evaluated and composed with f at the offset, plainly
    if it is t.  No wiring kernel, identity or tensor product is built.
    Once every non-wiring term is evaluated, a t whose domain is not f's
    codomain raises the TypeMismatch that composing with it would."""
    terms = _terms(t)
    # (dom, cod, fn) of each wiring term, (dom, cod, kernel) of the others
    parts = [_wiring(c) or ((k := evaluate(c)).dom, k.cod, k) for c in terms]
    K.require_composable(f.cod, reduce(Obj.tensor, (p[0] for p in parts), UNIT))
    i = 0
    for c, (dom, cod, g) in zip(terms, parts):
        if type(g) is SubKernel:
            f = K.compose(f, g, at=None if c is t else i)
        elif type(c) is not Id:
            j, y = i + len(dom.factors), f.cod.factors

            def moved(_: Outcome, o: Outcome) -> Outcome | None:
                z = g(o[i:j])
                return None if z is None else o[:i] + z + o[j:]

            f = K.relabel(f, moved, Obj(y[:i] + cod.factors + y[j:]))
        i += len(cod.factors)
    return f


def _terms(t: Term) -> list[Term]:
    """A Tensor's terms, nested Tensors opened, or [t] for any other t."""
    return [u for c in t.terms for u in _terms(c)] if type(t) is Tensor else [t]


def observe_as_comparator(at: Obj, point) -> Term:
    """Express observation through the comparator: pair the wire with the
    expected point, compare, then discard the surviving wire."""
    out = _as_outcome(point, at, "point")
    point_gen = Gen("point:" + ",".join(out), K.dirac(at, out))
    return Compose(Tensor(Id(at), point_gen), Compare(at), Discard(at))


BOOL = Alphabet("bool", ("t", "f"))
BOOL_OBJ = Obj((BOOL,))
YES: Outcome = ("t",)
NO: Outcome = ("f",)


@dataclass(frozen=True)
class NormalForm:
    """A factored term: outcome kernel g, success predicate h, both total.

    The represented kernel sends x to g(- | x) scaled by h(t | x); on
    inputs where success is impossible, g holds an arbitrary default
    distribution that the scaling wipes out.
    """

    g: SubKernel
    h: SubKernel

    def __post_init__(self) -> None:
        if self.h.cod != BOOL_OBJ or self.h.dom != self.g.dom:
            raise IllTyped("normal form parts must share a domain; h is Boolean")
        if not (K.is_total(self.g) and K.is_total(self.h)):
            raise NonTotalGenerator("normal form parts must be total")


def _and(x: Outcome, y: Outcome) -> Outcome:
    """Boolean conjunction, as a relabelling of bool (x) ... (x) bool:
    YES exactly when every factor is YES."""
    return YES if y == YES * len(y) else NO


def normal_form(term: Term) -> NormalForm:
    """Factor a constrained-process term into (g, h) by induction.

    Accepts terms whose generators are all total and whose only partial
    node is Observe; a comparator or a non-total generator raises
    NonTotalGenerator.  Raises IllTyped on type errors.
    """
    infer_type(term)
    return NormalForm(*_nf(term))


Parts = tuple[SubKernel, SubKernel]  # (g, h) of a NormalForm being built


def _nf(term: Term) -> Parts:
    match term:
        case Gen(name, k):
            if not K.is_total(k):
                raise NonTotalGenerator(f"generator {name!r} is not total")
            return k, K.deterministic(k.dom, BOOL_OBJ, lambda x: YES)
        case Compare(_):
            raise NonTotalGenerator("comparator is not a constrained process")
        case Tensor(terms):
            # Side by side, success probabilities multiply.
            gs, hs = zip(*map(_nf, terms))
            return K.tensor(*gs), K.relabel(K.tensor(*hs), _and, BOOL_OBJ)
        case Compose(terms):
            return reduce(_nf_compose, map(_nf, terms))
    # infer_type has run, so every other term is wiring.  h says where
    # its function is defined; Observe, the one partial node left, has
    # discard for its outcome part.
    w = _wiring(term)
    h = K.deterministic(w[0], BOOL_OBJ, lambda a: NO if w[2](a) is None else YES)
    if type(term) is Observe:
        return K.discard(term.obj), h
    return K.deterministic(*w), h


def _nf_compose(first: Parts, second: Parts) -> Parts:
    """Combine normal forms along a composition.

    Through the middle object, g1 ; (g2, h2)'s kernel has mass
    t(x) = sum_m g1(m | x) s2(m), with s2 the success probability h2(t).
    Normalised, it is the outcome kernel where t(x) > 0; where t(x) = 0
    the outcome row defaults to uniform to keep g total.  The overall
    success is h1 and (g1 ; h2), of probability s1(x) * t(x).
    """
    (g1, h1), (g2, h2) = first, second
    cod = g2.cod
    uniform = K.state(cod, dict.fromkeys(cod.outcomes(), Fraction(1, cod.size)))
    through = K.compose(g1, _denote(g2, h2))
    g = K.fill(K.normalise(through), uniform)
    both = K.compose(K.graph(h1), K.compose(g1, h2), at=1)
    h = K.relabel(both, _and, BOOL_OBJ)
    return g, h


def eval_normal_form(nf: NormalForm) -> SubKernel:
    """The kernel a normal form denotes: copy ; ((h ; observe yes) (x) g),
    built as graph(h ; observe yes) ; g."""
    return _denote(nf.g, nf.h)


def _denote(g: SubKernel, h: SubKernel) -> SubKernel:
    return K.compose(K.graph(_then(h, Observe(BOOL_OBJ, YES))), g)
