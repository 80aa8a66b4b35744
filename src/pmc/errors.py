"""Exception hierarchy.

Every error raised on purpose by this package derives from PmcError.
Validation problems (bad input data, ill-typed terms, unknown names) are
direct subclasses; situations where an inference result is mathematically
undefined derive from InferenceUndefined so callers can tell the two apart.
"""

from __future__ import annotations


class PmcError(Exception):
    """Base class for all package errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


class NegativeProbability(PmcError):
    """A probability entry was negative."""


class RowMassExceedsOne(PmcError):
    """A row of a kernel summed to more than one."""


class UnknownLabel(PmcError):
    """An outcome label does not belong to the alphabet it was used with."""


class TypeMismatch(PmcError):
    """Domain/codomain objects of an operation do not line up."""


class BadSplit(PmcError):
    """A marginal/conditional split index is outside the codomain factors."""


class IllTyped(PmcError):
    """A diagram term fails type inference; the message locates the subterm."""


class NonTotalGenerator(PmcError):
    """A term is not a constrained process: it contains a non-total
    generator (or a comparator, which is never total as a generator)."""


class NotTotal(PmcError):
    """A kernel that must be total (mass one on every input) is not."""


class BadParameter(PmcError):
    """A scenario parameter is outside its allowed range."""


class BadDensity(PmcError):
    """A random-kernel density is outside [0, 1]."""


class UnknownLaw(PmcError):
    """A law name is not in the registry."""


class UnknownAction(PmcError):
    """An action label is not one of the decision problem's actions."""


class SchemaError(PmcError):
    """A JSON document does not match the expected shape."""


class TermTooDeep(PmcError):
    """An input nests more deeply than the interpreter's recursion limit
    allows, such as a compose written inside a compose a few thousand
    levels deep.  A flat term list is one level, whatever its length."""


class InferenceUndefined(PmcError):
    """Base class for results that are mathematically undefined rather
    than malformed: conditioning on impossible evidence, empty decision
    tables, utilities of mass-zero states."""


class ImpossibleEvidence(InferenceUndefined):
    """Evidence with zero probability under the prior and channel."""


class NoFeasibleAction(InferenceUndefined):
    """No action of a decision problem has a defined expected utility."""


class UndefinedUtility(InferenceUndefined):
    """Expected utility of a state with zero mass."""
