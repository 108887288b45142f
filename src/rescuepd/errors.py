"""Exception hierarchy.

Every guard violation is an error, never a silent approximation: callers that
want a bigger search space raise the guard explicitly.
"""


class RescuePDError(Exception):
    """Base class for all package errors."""


class InvalidInstance(RescuePDError):
    """An instance violates a structural invariant; message names it."""


class UnknownTaxon(RescuePDError):
    """A taxa set references a label that is not a leaf of the tree."""


class InfeasibleSet(RescuePDError):
    """Schedule construction was asked for a set that fails feasibility."""


class SetTooLarge(RescuePDError):
    """Strict subset-table guard exceeded."""


class InstanceTooLarge(RescuePDError):
    """Subset enumeration guard exceeded."""


class TargetTooLarge(RescuePDError):
    """Color-mask width guard exceeded for the target-diversity solver."""


class LossTooLarge(RescuePDError):
    """Color-mask width guard exceeded for the loss-parameterized solver."""


class NonBinaryTree(RescuePDError):
    """The loss-parameterized solver requires a binary tree."""


class StateSpaceTooLarge(RescuePDError):
    """Budget-vector state guard exceeded."""


class BoundTooLarge(RescuePDError):
    """Knapsack table bound guard exceeded."""


class NotAStar(RescuePDError):
    """The star solver was given a tree with internal non-root vertices."""


class DomainMismatch(RescuePDError):
    """A schedule assigns a (team, slot) pair outside the availability set."""


class ParseError(RescuePDError):
    """Newick or file parsing failed; message carries the byte offset."""


class NonIntegerWeight(ParseError):
    """A Newick branch length is not a positive integer."""


class DuplicateLeaf(ParseError):
    """A Newick string labels two leaves identically."""


class BadParams(RescuePDError):
    """Generator parameters out of range."""
