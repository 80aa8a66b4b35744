"""String-diagram terms and their kernel semantics.

Terms are a free syntax over generators, structural maps, and an
explicit observation node.  Composition and tensor are strictly
associative, so Compose and Tensor are n-ary: Compose(a, b, c) is one
node holding terms (a, b, c), with no bracketing to choose.  A subterm's
path is "t" followed by ".terms[i]" per level, as the codec's JSON paths
are "diagram" followed by the same steps, so an IllTyped message names
its place in the document.  evaluate interprets any well-typed term as
a subdistribution kernel; wiring inside a composition chain is folded
into the kernel built so far instead of being built itself (see
evaluate).  normal_form factors a term built from total
generators and observations into a pair (g, h): a total kernel g giving
the outcome distribution where the term can succeed, and a total
Boolean kernel h giving the success probability, so that the term's
semantics is pointwise g * h(yes).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from . import kernel as K
from .errors import IllTyped, NonTotalGenerator
from .kernel import Alphabet, Obj, Outcome, SubKernel, UNIT, _as_outcome


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


def _infer(term: Term, path: str) -> tuple[Obj, Obj]:
    match term:
        case Gen(_, k):
            return k.dom, k.cod
        case Id(x):
            return x, x
        case Copy(x):
            return x, x.tensor(x)
        case Discard(x):
            return x, UNIT
        case Swap(x, y):
            return x.tensor(y), y.tensor(x)
        case Compare(x):
            return x.tensor(x), x
        case Observe(x, _):
            return x, UNIT
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
    raise IllTyped(f"at {path}: not a term: {term!r}")


def observe_kernel(at: Obj, point) -> SubKernel:
    """The costate at -> I succeeding exactly on the given outcome: the
    partial function x |-> () where x is the point."""
    out = _as_outcome(point, at, "point")
    return K.deterministic(at, UNIT, lambda x: () if x == out else None)


def evaluate(term: Term) -> SubKernel:
    """Interpret a well-typed term as a kernel.

    A Compose folds left to right: each later term acts on the kernel f
    built so far.  An Id leaves f as it is, and a Copy or Swap moves
    f's outputs by its function (kernel.relabel).  A Tensor of Ids
    around one other term g is f ; (id_L (x) g (x) id_R), computed as
    kernel.compose(f, evaluate(g), at=len(L)).  None of these becomes a
    kernel of its own, and no |L|- or |R|-sized identity is multiplied
    through.  Every other term (Discard, Observe, Compare, a generator,
    any other Tensor or Compose) is evaluated and composed with f.  A
    term whose domain is not f's codomain raises the TypeMismatch that
    composing with its kernel would.  A Tensor outside a composition
    chain is the product of its terms' kernels.
    """
    match term:
        case Gen(_, k):
            return k
        case Compose(terms):
            f = evaluate(terms[0])
            for t in terms[1:]:
                match t:
                    case Id(x):
                        K.require_composable(f.cod, x)
                    case Copy(x):
                        K.require_composable(f.cod, x)
                        f = K.relabel(f, lambda _, y: K.doubled(y), x.tensor(x))
                    case Swap(x, y):
                        K.require_composable(f.cod, x.tensor(y))
                        fn = K.swapped(x)
                        f = K.relabel(f, lambda _, o: fn(o), y.tensor(x))
                    case Tensor(ts) if sum(type(c) is not Id for c in ts) == 1:
                        i = next(i for i, c in enumerate(ts) if type(c) is not Id)
                        g = evaluate(ts[i])
                        left = reduce(Obj.tensor, (c.obj for c in ts[:i]), UNIT)
                        right = reduce(Obj.tensor, (c.obj for c in ts[i + 1 :]), UNIT)
                        K.require_composable(f.cod, left.tensor(g.dom).tensor(right))
                        f = K.compose(f, g, at=len(left.factors))
                    case _:
                        f = K.compose(f, evaluate(t))
            return f
        case Tensor(terms):
            return reduce(K.tensor, map(evaluate, terms))
        case Id(x):
            return K.identity(x)
        case Copy(x):
            return K.copy(x)
        case Discard(x):
            return K.discard(x)
        case Swap(x, y):
            return K.swap(x, y)
        case Compare(x):
            return K.compare(x)
        case Observe(x, point):
            return observe_kernel(x, point)
    raise IllTyped(f"not a term: {term!r}")


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


def _const_yes(dom: Obj) -> SubKernel:
    return K.deterministic(dom, BOOL_OBJ, lambda x: YES)


def _indicator(at: Obj, point: Outcome) -> SubKernel:
    return K.deterministic(at, BOOL_OBJ, lambda x: YES if x == point else NO)


def _and(x: Outcome, y: Outcome) -> Outcome:
    """Boolean conjunction, as a relabelling of bool (x) bool."""
    return YES if y == YES + YES else NO


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
            return k, _const_yes(k.dom)
        case Id() | Copy() | Discard() | Swap():
            k = evaluate(term)
            return k, _const_yes(k.dom)
        case Compare(_):
            raise NonTotalGenerator("comparator is not a constrained process")
        case Observe(x, point):
            return K.discard(x), _indicator(x, point)
        case Tensor(terms):
            return reduce(_nf_tensor, map(_nf, terms))
        case Compose(terms):
            return reduce(_nf_compose, map(_nf, terms))
    raise IllTyped(f"not a term: {term!r}")


def _nf_tensor(left: Parts, right: Parts) -> Parts:
    """Combine normal forms side by side: success probabilities multiply."""
    (g1, h1), (g2, h2) = left, right
    h = K.relabel(K.tensor(h1, h2), _and, BOOL_OBJ)
    return K.tensor(g1, g2), h


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
    both = K.tensor(K.identity(BOOL_OBJ), K.compose(g1, h2))
    h = K.relabel(K.compose(K.graph(h1), both), _and, BOOL_OBJ)
    return g, h


def eval_normal_form(nf: NormalForm) -> SubKernel:
    """The kernel a normal form denotes: copy ; ((h ; observe yes) (x) g),
    built as graph(h ; observe yes) ; g."""
    return _denote(nf.g, nf.h)


def _denote(g: SubKernel, h: SubKernel) -> SubKernel:
    restrict = K.compose(h, observe_kernel(BOOL_OBJ, YES))
    return K.compose(K.graph(restrict), g)
