"""How the property tests draw their inputs.

Hypothesis tests run under one profile: no deadline, no example database,
and draws derandomized (seeded from the test's own source), so a run
repeats the last one.  Their settings name only `max_examples`.

Sampled-oracle tests, which check an implementation against a slower
reference on many inputs and gain nothing from shrinking, loop over a
`case_table` instead.  Its cases come from `random.Random(name)`, a stream
that depends on the name only, so editing a test body or adding a literal
to any module leaves them as they are.  `test_draw_policy.py` pins each
table's digest.
"""

import random
from contextlib import contextmanager

from hypothesis import settings

settings.register_profile("convexkit", deadline=None, derandomize=True, database=None)
settings.load_profile("convexkit")

# every case table built so far, by name
TABLES = {}


def case_table(name, count, draw, first=()):
    """The cases `first`, then `count` more cases `draw(rng)` from the
    stream named `name`, the name of the test that loops over them.  A
    draw that repeats an earlier case is dropped, so the table holds
    len(first) + count distinct cases."""
    rng = random.Random(name)
    cases = list(first)
    seen = set(map(case_repr, cases))
    while len(cases) < len(first) + count:
        case = draw(rng)
        key = case_repr(case)
        if key not in seen:
            seen.add(key)
            cases.append(case)
    TABLES[name] = cases
    return cases


def case_repr(inputs):
    """A case's inputs as text, with each polygon as its vertices."""
    from convexkit.kernel.polygon import ConvexPolygon

    if isinstance(inputs, ConvexPolygon):
        return f"ConvexPolygon({inputs.vertices!r})"
    if isinstance(inputs, list):
        return "[" + ", ".join(map(case_repr, inputs)) + "]"
    if isinstance(inputs, tuple):
        return "(" + ", ".join(map(case_repr, inputs)) + ("," if len(inputs) == 1 else "") + ")"
    return repr(inputs)


@contextmanager
def case_named(index, *inputs):
    """Nothing shrinks a failing case, so an error inside names the case:
    its index in the table and its inputs."""
    try:
        yield
    except Exception as error:
        raise AssertionError(f"case {index}: {case_repr(inputs)}") from error
