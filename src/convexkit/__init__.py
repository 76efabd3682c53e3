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
convexkit loads no `dataclasses`.
"""


class Frozen:
    """Base of the slotted records that are immutable once built: `__init__`
    sets each field with `object.__setattr__`, and a later assignment
    raises AttributeError, as on a NamedTuple."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")
