"""Hypothesis strategies for random embedded queries.

Generates well-typed, *total* query pipelines (no partial operations, no
division) so that differential runs across the oracle and all backends
must agree without exception handling.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro import (
    Q,
    all_q,
    and_q,
    any_q,
    append,
    concat,
    concat_map,
    cond,
    drop,
    drop_while,
    ffilter,
    fmap,
    fsum,
    group_with,
    length,
    maximum_q,
    nil,
    nub,
    null,
    number,
    or_q,
    pyq,
    qc,
    reverse,
    singleton,
    sort_with,
    sort_with_desc,
    take,
    take_while,
    to_q,
    tup,
    zip_q,
)
from repro.ftypes import IntT

ints = st.integers(min_value=-20, max_value=20)
small = st.integers(min_value=-3, max_value=5)


#: Values drawn from a tiny pool, so generated lists are duplicate-heavy
#: (the interesting regime for nub / group_with / distinct-based plans).
dup_ints = st.integers(min_value=-2, max_value=2)


@st.composite
def base_int_list(draw) -> Q:
    """A literal Int-list: empty, duplicate-heavy, or general-purpose.

    Empty and duplicate-heavy shapes are generated explicitly (not left
    to chance) because they exercise the encodings hardest: empty inner
    lists must survive the surrogate join, and duplicates stress
    Distinct/RowRank plans.
    """
    mode = draw(st.integers(0, 5))
    if mode == 0:
        return nil(IntT)
    if mode <= 2:
        values = draw(st.lists(dup_ints, min_size=2, max_size=10))
    else:
        values = draw(st.lists(ints, max_size=7))
    return to_q(values, hint=None) if values else nil(IntT)


def _scalar_fn(draw):
    """A random total Int -> Int function (as a Python lambda over Q)."""
    k = draw(small)
    which = draw(st.integers(0, 4))
    if which == 0:
        return lambda x: x + k
    if which == 1:
        return lambda x: x * k
    if which == 2:
        return lambda x: x % 7  # constant divisor: total
    if which == 3:
        return lambda x: cond(x > k, x, k - x)
    return lambda x: -x


def _predicate(draw):
    k = draw(small)
    which = draw(st.integers(0, 3))
    if which == 0:
        return lambda x: x > k
    if which == 1:
        return lambda x: x % 2 == 0
    if which == 2:
        return lambda x: (x > k) | (x < -k)
    return lambda x: ~(x == k)


@st.composite
def int_list_query(draw, max_ops: int = 4) -> Q:
    """A pipeline of list operations over a literal Int list."""
    q = draw(base_int_list())
    for _ in range(draw(st.integers(0, max_ops))):
        op = draw(st.integers(0, 14))
        if op == 0:
            q = fmap(_scalar_fn(draw), q)
        elif op == 1:
            q = ffilter(_predicate(draw), q)
        elif op == 2:
            q = reverse(q)
        elif op == 3:
            q = sort_with(_scalar_fn(draw), q)
        elif op == 4:
            q = sort_with_desc(_scalar_fn(draw), q)
        elif op == 5:
            q = take(draw(small), q)
        elif op == 6:
            q = drop(draw(small), q)
        elif op == 7:
            q = nub(q)
        elif op == 8:
            q = append(q, draw(base_int_list()))
        elif op == 9:
            q = take_while(_predicate(draw), q)
        elif op == 10:
            q = drop_while(_predicate(draw), q)
        elif op == 11:
            q = fmap(lambda p: p[0] + p[1], zip_q(q, reverse(q)))
        elif op == 12:
            # group then flatten: [Int] -> [[Int]] -> [Int]
            q = concat(group_with(_scalar_fn(draw), q))
        elif op == 13:
            # zip against a sorted self, keep the larger component
            f = _scalar_fn(draw)
            q = fmap(lambda p: cond(p[0] > p[1], p[0], p[1]),
                     zip_q(q, sort_with(f, q)))
        else:
            # dedup after reordering (nub must respect *first* occurrence
            # in the sorted order, not the original)
            q = nub(sort_with(_scalar_fn(draw), q))
    return q


@st.composite
def nested_query(draw) -> Q:
    """A query of type [[Int]] built from pipelines."""
    inner = draw(int_list_query(max_ops=2))
    which = draw(st.integers(0, 4))
    if which == 0:
        k = draw(st.integers(1, 4))
        return group_with(lambda x: x % k, inner)
    if which == 1:
        return fmap(lambda x: take(x % 4, inner), inner)
    if which == 2:
        return fmap(lambda x: singleton(x), inner)
    if which == 3:
        # sort the groups by size: composition of group_with + sort_with
        k = draw(st.integers(1, 3))
        return sort_with(length, group_with(lambda x: x % k, inner))
    # groups of deduplicated elements, some possibly empty after filter
    p = _predicate(draw)
    return fmap(lambda g: ffilter(p, g),
                group_with(_scalar_fn(draw), nub(inner)))


@st.composite
def scalar_query(draw) -> Q:
    """A query of scalar type (aggregation over a pipeline)."""
    q = draw(int_list_query(max_ops=3))
    which = draw(st.integers(0, 6))
    if which == 0:
        return fsum(q)
    if which == 1:
        return length(q)
    if which == 2:
        return null(q)
    if which == 3:
        return and_q(fmap(_predicate(draw), q))
    if which == 4:
        return or_q(fmap(_predicate(draw), q))
    if which == 5:
        return all_q(_predicate(draw), q)
    return any_q(_predicate(draw), q)


@st.composite
def any_query(draw) -> Q:
    which = draw(st.integers(0, 3))
    if which == 0:
        return draw(int_list_query())
    if which == 1:
        return draw(nested_query())
    if which == 2:
        return draw(scalar_query())
    return tup(draw(scalar_query()), draw(int_list_query(max_ops=2)))


# ----------------------------------------------------------------------
# arbitrary nested values, generated type-first so lists stay homogeneous
# ----------------------------------------------------------------------

import datetime  # noqa: E402

from repro.ftypes import (  # noqa: E402
    BoolT,
    DateT,
    DoubleT,
    ListT,
    StringT,
    TimeT,
    TupleT,
    Type,
)

_ATOM_STRATEGIES = {
    BoolT: st.booleans(),
    IntT: ints,
    DoubleT: st.floats(allow_nan=False, allow_infinity=False, width=32),
    # NUL is outside the database text domain (see ftypes.values)
    StringT: st.text(max_size=5).filter(lambda t: "\x00" not in t),
    DateT: st.dates(min_value=datetime.date(1990, 1, 1),
                    max_value=datetime.date(2030, 12, 31)),
    TimeT: st.times().map(lambda t: t.replace(microsecond=0)),
}

atom_types = st.sampled_from(list(_ATOM_STRATEGIES))

ferry_types = st.recursive(
    atom_types,
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=3).map(
            lambda ts: TupleT(tuple(ts))),
        children.map(ListT),
    ),
    max_leaves=6,
)


def value_of(ty: Type) -> st.SearchStrategy:
    """A strategy for values inhabiting ``ty``."""
    if ty in _ATOM_STRATEGIES:
        return _ATOM_STRATEGIES[ty]
    if isinstance(ty, TupleT):
        return st.tuples(*(value_of(t) for t in ty.elts))
    assert isinstance(ty, ListT)
    return st.lists(value_of(ty.elt), max_size=4)


@st.composite
def typed_values(draw):
    """A (type, value) pair from the Ferry value universe."""
    ty = draw(ferry_types)
    return ty, draw(value_of(ty))


# ----------------------------------------------------------------------
# two-generator comprehensions joined by a cross-generator key equality
# ----------------------------------------------------------------------

_PAIRS_T = ListT(TupleT((IntT, IntT)))
#: Keys from a 4-value pool (duplicate-heavy); payloads from ``ints``.
_keyed_pairs = st.lists(st.tuples(st.integers(0, 3), ints), max_size=6)

#: (qc/pyq key equality, non-key conjunct) templates over the patterns
#: ``(a, b) <- xs`` and ``(c, d) <- ys``; ``K`` is a small constant.
_KEYS = ("b == c", "c == b", "b + K == c", "c == b - K", "(b, a) == (c, d)")
_RESTS = ("a < d", "d != K", "a + d > K", "not (a == d)")


@st.composite
def key_join_comprehension(draw):
    """``[head | (a, b) <- xs, (c, d) <- ys, key and rest]`` spelled with
    ``qc`` or ``pyq``: the key equality correlates the two generators (so
    guard fusion turns it into a join key), the rest is a plain filter.
    Sources may be empty and share no key.  Drawn with its value, Python's
    own evaluation of the comprehension (see
    :func:`reordered_join_comprehension`)."""
    k = str(draw(st.integers(0, 3)))
    key = draw(st.sampled_from(_KEYS)).replace("K", k)
    rest = draw(st.sampled_from(_RESTS)).replace("K", k)
    conjuncts = draw(st.permutations([key, rest]))
    head = draw(st.sampled_from(["(a, d)", "a + d"]))
    data = {name: draw(_keyed_pairs) for name in ("xs", "ys")}
    env = {name: to_q(rows, hint=_PAIRS_T) for name, rows in data.items()}
    python = (f"[{head} for (a, b) in xs for (c, d) in ys"
              f" if {conjuncts[0]} and {conjuncts[1]}]")
    if draw(st.booleans()):
        q = qc(f"[{head} | (a, b) <- xs, (c, d) <- ys,"
               f" {conjuncts[0]}, {conjuncts[1]}]", **env)
    else:
        q = pyq(python, **env)
    return q, eval(python, data)


#: Conjuncts correlating ``[.. | (a, b) <- xs, (c, d) <- ys, ..]`` with
#: the iterated ``o``: a key equality (either side first), optionally
#: with a correlated conjunct that is not one.
_CORRELATED = ("d == o", "o == d", "d == o and a < o", "c + d == o")


@st.composite
def reordered_join_comprehension(draw):
    """``fmap(λo. [head | (a, b) <- xs, (c, d) <- ys, b == c, d == o],
    outer)`` spelled with ``qc`` or ``pyq``, with its value: both sources
    are loop invariant and ``d == o`` correlates ``ys`` with the iteration,
    so invariant-prefix reordering binds ``ys`` first, keyed by ``o``,
    joins ``xs`` to it on ``b == c`` and sorts the pairs back into
    ``xs``-major order.  Keys repeat; sources may be empty and an ``o`` may
    match nothing.  Keys take two values, so an ``o`` often meets several
    ``ys`` rows that each meet several ``xs`` rows -- the case where the
    written and the reordered orders differ.  The value is
    Python's own evaluation of the comprehension, so it also checks the
    desugarer, which the interpreter's oracle runs downstream of."""
    correlated = draw(st.sampled_from(_CORRELATED))
    conjuncts = draw(st.permutations(["b == c", correlated]))
    head = draw(st.sampled_from(["(a, d)", "a + o", "a"]))
    bit = st.integers(0, 1)
    data = {"xs": draw(st.lists(st.tuples(st.integers(0, 3), bit),
                                max_size=6)),
            "ys": draw(st.lists(st.tuples(bit, bit), max_size=6))}
    env = {name: to_q(rows, hint=_PAIRS_T) for name, rows in data.items()}
    outer = draw(st.lists(st.integers(-1, 2), max_size=4))
    python = (f"[{head} for (a, b) in xs for (c, d) in ys"
              f" if {conjuncts[0]} and {conjuncts[1]}]")
    expected = [eval(python, {**data, "o": o}) for o in outer]
    if draw(st.booleans()):
        q = fmap(lambda o: qc(
            f"[{head} | (a, b) <- xs, (c, d) <- ys,"
            f" {conjuncts[0]}, {conjuncts[1]}]", o=o, **env),
            to_q(outer, hint=ListT(IntT)))
    else:
        q = fmap(lambda o: pyq(python, o=o, **env),
                 to_q(outer, hint=ListT(IntT)))
    return q, expected
