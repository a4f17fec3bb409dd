"""Exception types for every failure mode the toolkit distinguishes."""

from __future__ import annotations


class TreeShiftError(Exception):
    """Base class for all toolkit errors."""


# -- tree structure ---------------------------------------------------------

class CycleError(TreeShiftError):
    def __init__(self, vertices):
        self.vertices = tuple(vertices)
        super().__init__(f"edge list contains a directed cycle through {list(self.vertices)}")


class MultipleParentsError(TreeShiftError):
    def __init__(self, vertex, parents):
        self.vertex = vertex
        self.parents = tuple(parents)
        super().__init__(f"vertex {vertex!r} has multiple parents {list(self.parents)}")


class DisconnectedError(TreeShiftError):
    def __init__(self, roots):
        self.roots = tuple(roots)
        super().__init__(f"edge list is disconnected; parentless vertices {list(self.roots)}")


class InvalidEtaError(TreeShiftError):
    """Branch count must be a finite integer >= 2."""


class HasRootError(TreeShiftError):
    """Operation requires a rootless tree."""


class UnknownVertexError(TreeShiftError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex!r} is not in the tree")


# -- weights ----------------------------------------------------------------

class WeightUndefinedError(TreeShiftError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"no weight defined at vertex {vertex!r}")


class ZeroWeightError(TreeShiftError):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"weight at vertex {vertex!r} is zero; criterion requires nonzero weights")


# -- moment sequences -------------------------------------------------------

class NegativeEntryError(TreeShiftError):
    def __init__(self, index, value, needs="nonnegative"):
        self.index = index
        self.value = value
        super().__init__(f"entry t_{index} = {value} violates the {needs} requirement")


class ZeroEntryError(TreeShiftError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"entry t_{index} = 0; term 1/t_n**(1/2n) undefined")


class WindowTooSmallError(TreeShiftError):
    def __init__(self, have, want):
        self.have = have
        self.want = want
        super().__init__(f"two-sided window reaches index {-have} but shift {want} was requested")


class MeasureRecoveryError(TreeShiftError):
    """The sequence is not generated by an m-atomic nonnegative measure.

    ``reason`` is one of "rank_deficient", "negative_mass",
    "negative_location", and in float mode also "nonreal_roots".  The one
    exception is "outside_float_range": an exact prefix whose measure exists
    but has a node or mass that floats cannot hold.
    """

    def __init__(self, reason, detail=""):
        self.reason = reason
        msg = f"measure recovery failed ({reason})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


# -- measures ---------------------------------------------------------------

class ZeroAtomError(TreeShiftError):
    """A 1/s-integral was requested against a measure with an atom at 0.

    Every consistency-style formula consuming such integrals presupposes
    finiteness, so this is a hard error rather than a silent +inf.
    """


class NotInDomainError(TreeShiftError):
    def __init__(self, value, bound):
        self.value = value
        self.bound = bound
        super().__init__(
            f"integral of 1/s is {value}, exceeding the admissible bound {bound}; "
            f"the measure is outside the bounded-integral class for this weight"
        )


class NotNormalizableError(TreeShiftError):
    def __init__(self, first_moment, weight_sq):
        self.first_moment = first_moment
        self.weight_sq = weight_sq
        super().__init__(
            f"first moment {first_moment} != squared weight {weight_sq}; "
            f"the downward transform would not produce a probability measure"
        )


class MassExceedsOneError(TreeShiftError):
    def __init__(self, mass):
        self.mass = mass
        super().__init__(f"integral term carries mass {mass} > 1; no admissible defect at 0 exists")


class ZeroMomentError(TreeShiftError):
    def __init__(self, order):
        self.order = order
        super().__init__(f"moment of order {order} vanishes; weight ratio undefined")


# -- criteria ---------------------------------------------------------------

class MissingChildMeasureError(TreeShiftError):
    def __init__(self, vertex, child):
        self.vertex = vertex
        self.child = child
        super().__init__(f"no measure supplied for child {child!r} of vertex {vertex!r}")


class ZeroAtomInChildError(TreeShiftError):
    def __init__(self, child):
        self.child = child
        super().__init__(
            f"child measure at {child!r} has an atom at 0 with a nonzero weight; "
            f"the recursion's right side would be infinite"
        )


class WrongTreeShapeError(TreeShiftError):
    """The tree does not have the single-branching-vertex shape."""


class NotAChainError(WrongTreeShapeError):
    def __init__(self, vertex, n_children):
        self.vertex = vertex
        self.n_children = n_children
        super().__init__(f"vertex {vertex!r} has {n_children} children; criterion requires a chain")


class CaseMismatchError(TreeShiftError):
    """The requested case does not match the tree's stem length."""


class PremiseViolatedError(TreeShiftError):
    def __init__(self, condition_id, detail=""):
        self.condition_id = condition_id
        msg = f"premise {condition_id} fails"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


# -- instance documents -----------------------------------------------------

class InstanceError(TreeShiftError):
    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
