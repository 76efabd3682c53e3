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
from math import comb
from typing import List, Tuple

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


# one room fills the rectangle and is alone on the left and the top wall
_ROOT = (Floorplan(((0, 1, 0, 1),), 2, 2, ()), (0,), (0,))


def _insert(fp: Floorplan, left, top, move: str, j: int):
    """One insertion step.  `left` lists the rooms on the left wall (top to
    bottom) and `top` those on the top wall (left to right).  A vertical
    move ("V", j) gives the new room the top-left block down to the bottom
    edge of the j-th left-wall room, and that prefix of rooms now starts at
    a new vertical segment; a horizontal move ("H", j) does the same with
    the top wall.  Returns the new (fp, left, top)."""
    rooms = list(fp.rooms)
    new_id = fp.n
    nv, nh = fp.num_vsegs, fp.num_hsegs
    if move == "V":
        if not (1 <= j <= len(left)):
            raise ValueError(f"V push count {j} out of range")
        for r in left[:j]:
            rooms[r] = (nv,) + rooms[r][1:]
        rooms.append((0, nv, rooms[left[j - 1]][2], 1))
        left, top = (new_id,) + left[j:], (new_id,) + top
        nv += 1
    elif move == "H":
        if not (1 <= j <= len(top)):
            raise ValueError(f"H push count {j} out of range")
        for r in top[:j]:
            rooms[r] = rooms[r][:3] + (nh,)
        rooms.append((0, rooms[top[j - 1]][1], nh, 1))
        left, top = (new_id,) + left, (new_id,) + top[j:]
        nh += 1
    else:
        raise ValueError(f"unknown move {move!r}")
    return Floorplan(tuple(rooms), nv, nh, fp.code + ((move, j),)), left, top


def enumerate_floorplans(n: int) -> List[Floorplan]:
    """All mosaic floorplans with n rooms, in a fixed depth-first order
    (vertical insertions before horizontal, smaller push counts first)."""
    if not (1 <= n <= MAX_ROOMS):
        raise ValueError(f"n must be in 1..{MAX_ROOMS}, got {n}")
    out: List[Floorplan] = []
    stack = [_ROOT]
    while stack:
        fp, left, top = state = stack.pop()
        if fp.n == n:
            out.append(fp)
            continue
        moves = [("V", j) for j in range(1, len(left) + 1)]
        moves += [("H", j) for j in range(1, len(top) + 1)]
        # pushed last, popped first: the children come out in `moves` order
        stack += [_insert(*state, move, j) for move, j in reversed(moves)]
    return out


def floorplan_from_code(code) -> Floorplan:
    """Rebuild the floorplan for one insertion code."""
    state = _ROOT
    for move, j in code:
        state = _insert(*state, move, j)
    return state[0]


def baxter_count(n: int) -> int:
    """The number of Baxter permutations of length n, which equals the
    number of n-room mosaic floorplans, in closed form (Chung, Graham,
    Hoggatt and Kleiman 1978):
    B(n) = sum_k C(n+1, k-1) C(n+1, k) C(n+1, k+1) / (C(n+1, 1) C(n+1, 2))."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    terms = sum(comb(n + 1, k - 1) * comb(n + 1, k) * comb(n + 1, k + 1) for k in range(1, n + 1))
    return terms // (comb(n + 1, 1) * comb(n + 1, 2))
