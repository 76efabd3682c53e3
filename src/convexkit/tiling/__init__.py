"""Rectangle tilings: `tiles` (exact verification and tile files), `search`
(exhaustive search), `floorplans` (floorplan combinatorics),
`isoperimetric` (equal-semiperimeter census) and `hcn` (divisor-record
families)."""
