"""convexkit: exploration toolkit for four corners of combinatorial and
metric geometry.

- tiling: rectangles tiled by rectangles (exact arithmetic), mosaic
  floorplans, the distinct-area unit-semiperimeter search, and layout
  censuses of divisor-record tile sets
- fairpart: straight cuts of convex regions splitting area a:b and
  perimeter sqrt(a):sqrt(b), plus a boundary-band partition family
- extremal: diameter extremizers at fixed area and perimeter (lens
  maximizer, constant-width and sector families at the low end)
- polyhedra: distinct convex solids sharing one face multiset
- kernel: the primitives they share; cli: the `convexkit` command

Exact layers use fractions.Fraction; float layers pin tolerances per
operation.  Every name is imported from the module that defines it (for
example `from convexkit.kernel.polygon import rectangle`); the packages
re-export nothing, so importing one subsystem loads only what it uses.
The records are `typing.NamedTuple`s or slotted classes, so importing
convexkit loads no `dataclasses`.  Every slotted class derives from
`Frozen`, which gives it the contract of a frozen dataclass: positional
arguments fill `__slots__` in order, then `__post_init__` runs, the hook
where a record checks or normalizes its fields through
`object.__setattr__`; a later assignment or `del` raises AttributeError.
Equality, hashing, repr, copying and pickling follow the fields.  A value
class with its own constructor (`ConvexPolygon`, `ArcPolygon`,
`SupportBody`, `TileSet`) ends it with `super().__init__(<its field
values>)`.  No value is mutable: every class is a `NamedTuple` result
(such as `PositivePoint`, whose views are computed on read), a `Frozen`
value or an exception, but for the fair-cut sweep `fairpart._ChordSweep`.
`UnsupportedInstance` is the error of every program limit.
"""


class UnsupportedInstance(ValueError):
    """A legal instance beyond a program limit: a cap on its size, or on the
    time or memory it would take."""


class Frozen:
    """Base of the slotted records and values, immutable once built, with
    the semantics of a frozen dataclass whose fields are `__slots__`."""

    __slots__ = ()

    def __init__(self, *values):
        fields = type(self).__slots__
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(values)}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __getstate__(self) -> tuple:
        """The field values, in slot order."""
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self):
        return hash(self.__getstate__())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setstate__(self, state):
        for name, value in zip(type(self).__slots__, state):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
