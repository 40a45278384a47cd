"""Exception types shared across the toolkit.

Every error raised on bad domain input derives from OmlkitError, so callers
(and the command line front end) can catch one type.
"""


class OmlkitError(Exception):
    """Base class for all toolkit errors."""


class MalformedInput(OmlkitError):
    """Structurally broken input: bad lengths, stray indices, junk files."""


class NotAPartialOrder(OmlkitError):
    """Order data is not reflexive, antisymmetric and transitive as given."""


class NoBoundedLattice(OmlkitError):
    """Some pair lacks a meet or join, or 0 / n-1 are not the bounds."""


class BadOrthocomplement(OmlkitError):
    """The complement map is not an order-reversing complementing involution."""


class FlavorError(OmlkitError):
    """An operation that needs an orthomodular lattice got a plain ortholattice."""


class NotBoolean(OmlkitError):
    """An operation restricted to Boolean algebras got a non-Boolean lattice."""


class NotAMorphism(OmlkitError):
    """A candidate element map fails the homomorphism laws."""


class NotAnIso(OmlkitError):
    """A candidate node bijection is not an order isomorphism."""


class UnknownName(OmlkitError):
    """Catalog lookup with an unrecognized name."""


class SizeCap(OmlkitError):
    """A size limit was exceeded (64-element universe, search products)."""


class ExplosionCap(OmlkitError):
    """Subalgebra enumeration passed the configured node cap."""


class NoLeastElement(OmlkitError):
    """A poset query that needs a bottom element found none."""


class Unsupported(OmlkitError):
    """Input is structurally fine but beyond a documented search limit."""


class FrameCap(OmlkitError):
    """An orthogonality frame has too many points or orthoclosed sets for a
    lattice of at most 64 elements."""


class Inconsistent(OmlkitError):
    """A computation reached a state its input contract rules out (bug signal)."""


class GlueConflict(OmlkitError):
    """A node map lifts to no element map: a four-element node is no block,
    an element is left without an image, or the map built is not an
    isomorphism realizing it."""


class BlockMismatch(OmlkitError):
    """A poset map sent a maximal node somewhere no maximal node can go."""


class RestrictionMismatch(OmlkitError):
    """Boolean-recognized nodes of the two subalgebra lattices do not correspond."""
