"""Shared numeric and geometric primitives: `rational` (exact scalars),
`linsolve` (exact linear solving), `polygon` (float convex polygons and
point rings), `arcs` (exact arc polygons), `support` (sampled support
bodies) and `roots` (the root finders of the float solves)."""
