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
pair (g, h) computed in the total category: the term is lifted once to
a total kernel into its codomain (x) bool (see _lift), h is that bool's
marginal, the success probability, and g the conditional on success,
so that the term's semantics is pointwise g * h(yes).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from typing import Iterable

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


def _wiring(
    term: Term,
) -> tuple[Obj, Obj, PartialFn, Iterable[Outcome] | None] | None:
    """(dom, cod, fn, defined) of a wiring node, fn its partial function
    and defined the inputs where fn is defined, in domain order, or None
    where fn is total; or None for a generator, Compose or Tensor.  Only
    the comparator (the partial Frobenius multiplication), defined on
    the diagonal, and an observation, defined at its point, are
    partial."""
    match term:
        case Id(x):
            return x, x, lambda a: a, None
        case Copy(x):
            return x, x.tensor(x), lambda a: a + a, None
        case Discard(x):
            return x, UNIT, lambda a: (), None
        case Swap(x, y):
            n = len(x.factors)
            return x.tensor(y), y.tensor(x), lambda o: o[n:] + o[:n], None
        case Compare(x):
            n = len(x.factors)
            return (
                x.tensor(x),
                x,
                lambda o: o[:n] if o[:n] == o[n:] else None,
                (a + a for a in x.outcomes()),
            )
        case Observe(x, point):
            return x, UNIT, lambda a: () if a == point else None, (point,)
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
    partial function x |-> () where x is the point, its one row."""
    return K.deterministic(*_wiring(Observe(at, point)))


def evaluate(term: Term) -> SubKernel:
    """Interpret a well-typed term as a kernel: a wiring node as the
    kernel of its partial function, built from the inputs where it is
    defined (so Observe over any object is one row), a Tensor as one
    deferred kernel.tensor of its terms' kernels (nested Tensors
    opened, so no partial product is built), and a Compose as a left
    fold (see _then) in which no step becomes a wiring kernel or a
    tensor product of its own."""
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
    for c, (dom, cod, g, *_) in zip(terms, parts):
        if isinstance(g, SubKernel):
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
    inputs where success is impossible, g holds the uniform state, which
    the scaling wipes out.
    """

    g: SubKernel
    h: SubKernel

    def __post_init__(self) -> None:
        if self.h.cod != BOOL_OBJ or self.h.dom != self.g.dom:
            raise IllTyped("normal form parts must share a domain; h is Boolean")
        if not (K.is_total(self.g) and K.is_total(self.h)):
            raise NonTotalGenerator("normal form parts must be total")


def _and(y: Outcome) -> Outcome:
    """Boolean conjunction: YES exactly when every bool label of y is YES."""
    return YES if y == YES * len(y) else NO


def normal_form(term: Term) -> NormalForm:
    """Factor a constrained-process term into (g, h) through its lift.

    h is the bool marginal of _lift(term), the success probability, and
    g is the lift restricted to YES and normalised, the conditional on
    success, filled with the uniform state where success is impossible.
    Accepts terms whose generators are all total and whose only partial
    node is Observe; a comparator or a non-total generator raises
    NonTotalGenerator.  Raises IllTyped on type errors.
    """
    _, cod = infer_type(term)
    lift = _lift(term)
    won = K.relabel(lift, lambda x, y: y[:-1] if y[-1:] == YES else None, cod)
    uniform = K.state(cod, dict.fromkeys(cod.outcomes(), Fraction(1, cod.size)))
    h = K.relabel(lift, lambda x, y: y[-1:], BOOL_OBJ)
    return NormalForm(K.fill(K.normalise(won), uniform), h)


def _lift(term: Term) -> SubKernel:
    """The total kernel X -> Y (x) bool of a well-typed term t : X -> Y,
    its bool saying whether t succeeded; a failed entry's Y part carries
    no meaning.  A comparator or a non-total generator raises
    NonTotalGenerator."""
    match term:
        case Gen(name, k):
            if not K.is_total(k):
                raise NonTotalGenerator(f"generator {name!r} is not total")
            return K.relabel(k, lambda x, y: y + YES, k.cod.tensor(BOOL_OBJ))
        case Compare(_):
            raise NonTotalGenerator("comparator is not a constrained process")
        case Compose(terms):
            # l1 ; (l2 (x) id), whose codomain is Y (x) bool2 (x) bool1
            return reduce(
                lambda l1, l2: K.relabel(
                    K.compose(l1, l2, at=0),
                    lambda x, y: y[:-2] + _and(y[-2:]),
                    l2.cod,
                ),
                map(_lift, terms),
            )
        case Tensor():
            # Y1 (x) bool (x) Y2 (x) bool ...: each bool moved last, anded
            lifts = [_lift(t) for t in _terms(term)]
            ends = {*accumulate(len(f.cod.factors) for f in lifts)}
            keep = [i for i in range(max(ends)) if i + 1 not in ends]
            cod = Obj(tuple(a for f in lifts for a in f.cod.factors[:-1]))

            def moved(_: Outcome, y: Outcome) -> Outcome:
                return tuple(y[i] for i in keep) + _and(tuple(y[i - 1] for i in ends))

            return K.relabel(K.tensor(*lifts), moved, cod.tensor(BOOL_OBJ))
    # infer_type has run, so every other term is wiring.
    dom, cod, fn, _ = _wiring(term)
    fail, cod = next(cod.outcomes()) + NO, cod.tensor(BOOL_OBJ)
    return K.deterministic(
        dom, cod, lambda a: fail if (b := fn(a)) is None else b + YES
    )


def eval_normal_form(nf: NormalForm) -> SubKernel:
    """The kernel a normal form denotes: copy ; ((h ; observe yes) (x) g),
    built as graph(h ; observe yes) ; g."""
    return K.compose(K.graph(_then(nf.h, Observe(BOOL_OBJ, YES))), nf.g)
