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

from typing import Iterator, NamedTuple, Tuple

MAX_ROOMS = 9


class Floorplan(NamedTuple):
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


def iter_floorplans(n: int, grow=None, root=None) -> Iterator[Tuple[Floorplan, object]]:
    """Every n-room floorplan, each with a value carried down the insertion
    tree, in a fixed depth-first order (vertical insertions before
    horizontal, smaller push counts first).  The walk is lazy: a consumer
    that stops early builds no more of the tree than it has seen, plus the
    siblings of the nodes on its path.

    `root` is the one-room floorplan's value.  `grow(value, fp, left, top,
    leaf)` returns the values of fp's children, one per move in the order
    ("V", 1..len(left)), then ("H", 1..len(top)); `left` and `top` are as
    in `_insert`, and `leaf` says the children have n rooms.  Without
    `grow` every value is None."""
    if not (1 <= n <= MAX_ROOMS):
        raise ValueError(f"n must be in 1..{MAX_ROOMS}, got {n}")
    stack = [(_ROOT, root)]
    while stack:
        state, value = stack.pop()
        fp, left, top = state
        if fp.n == n:
            yield fp, value
            continue
        moves = [("V", j) for j in range(1, len(left) + 1)]
        moves += [("H", j) for j in range(1, len(top) + 1)]
        values = grow(value, *state, fp.n + 1 == n) if grow else [None] * len(moves)
        # pushed last, popped first: the children come out in `moves` order
        stack += [(_insert(*state, *move), v) for move, v in zip(moves[::-1], values[::-1])]


def descend(code, grow=None, root=None) -> Tuple[Floorplan, object]:
    """The floorplan of one insertion code, with the value that
    `iter_floorplans(len(code) + 1, grow, root)` carries to it."""
    state, value = _ROOT, root
    for move, j in code:
        state, parent = _insert(*state, move, j), state
        if grow:  # the value of the child on the code's path, in move order
            k = j - 1 + (len(parent[1]) if move == "H" else 0)
            value = grow(value, *parent, parent[0].n == len(code))[k]
    return state[0], value
