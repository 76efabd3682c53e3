"""Mosaic floorplans: combinatorial rectangulations of a rectangle.

A floorplan here is the combinatorial structure of n rooms obtained by
repeatedly inserting a new room at the top-left corner, either pushing a
prefix of the left-wall rooms to the right (a vertical insertion) or a
prefix of the top-wall rooms down (a horizontal insertion).  Deleting the
top-left room is the inverse move and is uniquely determined, so distinct
insertion codes give distinct floorplans and every floorplan arises once.

Rooms are numbered in insertion order.  Vertical segment 0 is the left
wall and 1 the right wall; horizontal segment 0 is the bottom wall and
1 the top wall.  Interior segments get ids 2, 3, ... in creation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, List, Tuple

MAX_ROOMS = 8


@dataclass(frozen=True)
class Floorplan:
    """rooms[i] = (left_vseg, right_vseg, bottom_hseg, top_hseg)."""

    rooms: Tuple[Tuple[int, int, int, int], ...]
    num_vsegs: int
    num_hsegs: int
    code: Tuple[Tuple[str, int], ...]

    @property
    def n(self) -> int:
        return len(self.rooms)


def enumerate_floorplans(n: int) -> List[Floorplan]:
    """All mosaic floorplans with n rooms, in a fixed depth-first order
    (vertical insertions before horizontal, smaller push counts first)."""
    if not (1 <= n <= MAX_ROOMS):
        raise ValueError(f"n must be in 1..{MAX_ROOMS}, got {n}")
    out: List[Floorplan] = []

    rooms: List[List[int]] = [[0, 1, 0, 1]]
    left = [0]   # rooms on the left wall, top to bottom
    top = [0]    # rooms on the top wall, left to right
    code: List[Tuple[str, int]] = []

    def snapshot(nv: int, nh: int) -> Floorplan:
        return Floorplan(tuple(tuple(r) for r in rooms), nv, nh, tuple(code))

    def rec(nv: int, nh: int):
        if len(rooms) == n:
            out.append(snapshot(nv, nh))
            return
        new_id = len(rooms)

        for j in range(1, len(left) + 1):
            # Vertical insertion: new room takes the top-left block down to
            # the bottom edge of the j-th left-wall room; that prefix of
            # rooms now starts at the new segment.
            pushed = left[:j]
            saved = [rooms[r][0] for r in pushed]
            bottom = rooms[left[j - 1]][2]
            for r in pushed:
                rooms[r][0] = nv
            rooms.append([0, nv, bottom, 1])
            old_left, old_top = left[:], top[:]
            left[:] = [new_id] + left[j:]
            top[:] = [new_id] + top
            code.append(("V", j))
            rec(nv + 1, nh)
            code.pop()
            left[:], top[:] = old_left, old_top
            rooms.pop()
            for r, s in zip(pushed, saved):
                rooms[r][0] = s

        for j in range(1, len(top) + 1):
            pushed = top[:j]
            saved = [rooms[r][3] for r in pushed]
            right = rooms[top[j - 1]][1]
            for r in pushed:
                rooms[r][3] = nh
            rooms.append([0, right, nh, 1])
            old_left, old_top = left[:], top[:]
            top[:] = [new_id] + top[j:]
            left[:] = [new_id] + left
            code.append(("H", j))
            rec(nv, nh + 1)
            code.pop()
            left[:], top[:] = old_left, old_top
            rooms.pop()
            for r, s in zip(pushed, saved):
                rooms[r][3] = s

    rec(2, 2)
    # rec holds itself through its closure cell; breaking that cycle lets
    # reference counting free the cells (and with them `out`) at once.
    del rec
    return out


def floorplan_from_code(code) -> Floorplan:
    """Rebuild the floorplan for one insertion code."""
    rooms: List[List[int]] = [[0, 1, 0, 1]]
    left = [0]
    top = [0]
    nv = nh = 2
    for move, j in code:
        new_id = len(rooms)
        if move == "V":
            if not (1 <= j <= len(left)):
                raise ValueError(f"V push count {j} out of range")
            bottom = rooms[left[j - 1]][2]
            for r in left[:j]:
                rooms[r][0] = nv
            rooms.append([0, nv, bottom, 1])
            left = [new_id] + left[j:]
            top = [new_id] + top
            nv += 1
        elif move == "H":
            if not (1 <= j <= len(top)):
                raise ValueError(f"H push count {j} out of range")
            right = rooms[top[j - 1]][1]
            for r in top[:j]:
                rooms[r][3] = nh
            rooms.append([0, right, nh, 1])
            top = [new_id] + top[j:]
            left = [new_id] + left
            nh += 1
        else:
            raise ValueError(f"unknown move {move!r}")
    return Floorplan(tuple(tuple(r) for r in rooms), nv, nh, tuple(code))


def is_baxter(perm) -> bool:
    """True iff the permutation avoids the vincular patterns 2-41-3 and
    3-14-2 (adjacent middle pair).  O(n^2): for each adjacent descent check
    for a smaller left value under a larger right value inside the gap, and
    symmetrically for ascents."""
    p = tuple(perm)
    n = len(p)
    if sorted(p) != list(range(1, n + 1)):
        raise ValueError("expected a permutation of 1..n")
    for j in range(n - 1):
        a, b = p[j], p[j + 1]
        if a > b:
            lo, hi = b, a
            best_left = None
            for i in range(j):
                if lo < p[i] < hi and (best_left is None or p[i] < best_left):
                    best_left = p[i]
            if best_left is None:
                continue
            for k in range(j + 2, n):
                if lo < p[k] < hi and p[k] > best_left:
                    return False
        elif a < b:
            lo, hi = a, b
            best_left = None
            for i in range(j):
                if lo < p[i] < hi and (best_left is None or p[i] > best_left):
                    best_left = p[i]
            if best_left is None:
                continue
            for k in range(j + 2, n):
                if lo < p[k] < hi and p[k] < best_left:
                    return False
    return True


def baxter_count(n: int) -> int:
    """Count Baxter permutations of length n by filtering all n! candidates."""
    if not (1 <= n <= MAX_ROOMS):
        raise ValueError(f"n must be in 1..{MAX_ROOMS}, got {n}")
    return sum(1 for p in permutations(range(1, n + 1)) if is_baxter(p))
