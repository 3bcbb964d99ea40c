"""Desugaring comprehensions into list-prelude combinators.

This implements the "well-known desugaring approach" the paper cites for
its quasi-quoter (step 1 of Figure 2), extended with the ``group by`` /
``order by`` clauses of Peyton Jones & Wadler's *Comprehensive
Comprehensions* [16]:

* a generator extends the *binding stream* via ``concat_map``;
* a guard filters the stream;
* ``let`` pairs every stream element with the bound value;
* ``then group by k`` applies ``group_with`` and *rebinds every variable
  to the list of its values within the group* (which is why the paper's
  running example writes ``the cat`` and treats ``fac`` as a list);
* ``then sortWith by k`` / ``order by k [desc]`` applies a stable sort;
* the head expression is finally mapped over the stream.

The stream is represented as a left-nested pair chain; binders are
extractor functions from the stream element to the bound value, so the
whole translation stays compositional.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ...errors import ComprehensionSyntaxError, QTypeError
from ...expr import free_vars
from ...ftypes import ListT
from .. import combinators as C
from ..q import Q, cond, max_q, min_q, nil, to_q, tup
from . import parser as P

#: Builtins callable by name inside a comprehension, with Haskell-style
#: aliases alongside the snake_case names.
_BUILTIN_FNS: dict[str, Callable[..., Any]] = {
    "map": lambda f, xs: C.fmap(f, xs),
    "filter": lambda f, xs: C.ffilter(f, xs),
    "concatMap": C.concat_map, "concat_map": C.concat_map,
    "concat": C.concat,
    "sortWith": C.sort_with, "sort_with": C.sort_with,
    "groupWith": C.group_with, "group_with": C.group_with,
    "takeWhile": C.take_while, "take_while": C.take_while,
    "dropWhile": C.drop_while, "drop_while": C.drop_while,
    "zipWith": C.zip_with, "zip_with": C.zip_with,
    "all": C.all_q, "any": C.any_q,
    "and": C.and_q, "or": C.or_q,
    "head": C.head, "last": C.last, "the": C.the,
    "tail": C.tail, "init": C.init,
    "length": C.length, "null": C.null, "reverse": C.reverse,
    "append": C.append, "cons": C.cons, "snoc": C.snoc,
    "singleton": C.singleton,
    "index": C.index, "take": C.take, "drop": C.drop,
    "splitAt": C.split_at, "split_at": C.split_at,
    "zip": C.zip_q, "zip3": C.zip3_q, "unzip": C.unzip_q,
    "nub": C.nub, "number": C.number,
    "elem": C.elem, "notElem": C.not_elem, "not_elem": C.not_elem,
    "sum": C.fsum, "avg": C.favg,
    "maximum": C.maximum_q, "minimum": C.minimum_q,
    "min": min_q, "max": max_q,
    "fst": lambda q: q[0], "snd": lambda q: q[1],
    "abs": abs,
    "toDouble": lambda q: to_q(q).to_double(),
    "to_double": lambda q: to_q(q).to_double(),
    "cond": cond,
    "span": C.span_q, "break": C.break_q,
    "foldr": C.foldr, "foldl": C.foldl,
}

Scope = Mapping[str, Any]
Extractor = Callable[[Q], Q]


def desugar_comprehension(comp: P.PComp, env: Scope) -> Q:
    """Lower a parsed comprehension to a combinator query."""
    stream, binders = None, {}
    for qual in _schedule_guards(comp, env):
        stream, binders = _step(qual, stream, binders, env)
    if stream is None:
        # No generator at all: [e | guards] behaves like a 0/1-element list.
        stream = to_q([0])
        binders = {}
    return C.fmap(lambda t: _eval(comp.head, _scope(binders, t, env)), stream)


def _conjuncts(e: P.PExpr) -> list[P.PExpr]:
    """Split a guard into its top-level ``and`` conjuncts."""
    if isinstance(e, P.PBin) and e.op == "and":
        return _conjuncts(e.lhs) + _conjuncts(e.rhs)
    return [e]


def _schedule_guards(comp: P.PComp, env: Scope) -> list[P.PQual]:
    """Attach each guard conjunct at the earliest qualifier that binds its
    variables (classic comprehension guard pushdown).

    A conjunct that :func:`fusible` accepts for its target generator is
    fused into that generator's source, after :func:`invariant_prefix` has
    had the chance to reorder a loop-invariant generator prefix so that
    its first generator is keyed to the loop.  Filtering early keeps
    generator cross products small -- the comprehension-level half of the
    paper's "join graph isolation" [10]; the compiler's decorrelation rule
    (``repro.core``) is the other half.
    Guards never move across a ``group by`` (it rebinds every variable);
    moving across sorts and unrelated generators is semantics-preserving
    for the pure predicates the query language admits.
    """
    quals = _reorder_invariant_prefix(comp, env)
    slots: list[tuple[P.PQual, list[P.PExpr]]] = []  # (qual, guards after)
    bound_after: list[set[str]] = []  # names bound once slot i has run
    bound: set[str] = set()
    barrier = 0  # first slot index a guard may attach to (post group-by)

    def attach(conj: P.PExpr) -> None:
        deps = _names(conj)
        target = None
        for i in range(barrier, len(slots)):
            if deps & bound <= bound_after[i]:
                target = i
                break
        if target is None and slots:
            target = len(slots) - 1
        if target is None:
            slots.append((P.PGuard(conj), []))
            bound_after.append(set(bound))
            return
        qual, _ = slots[target]
        if isinstance(qual, FusedGen) and fusible(
                deps & bound, [s & bound for s in _eq_sides(conj)],
                _pat_names(qual.pat)):
            qual.fused.append(conj)
        else:
            slots[target][1].append(conj)

    for qual in quals:
        if isinstance(qual, P.PGuard):
            for conj in _conjuncts(qual.cond):
                attach(conj)
            continue
        if isinstance(qual, P.PGen):
            qual = FusedGen(qual.pat, qual.src, [])
            bound |= _pat_names(qual.pat)
        elif isinstance(qual, P.PLet):
            bound.add(qual.name)
        slots.append((qual, []))
        bound_after.append(set(bound))
        if isinstance(qual, P.PGroup):
            barrier = len(slots)

    out: list[P.PQual] = []
    for qual, guards in slots:
        out.append(qual)
        out.extend(P.PGuard(g) for g in guards)
    return out


def fusible(deps: set[str], eq_sides: list[set[str]],
            pat: set[str]) -> bool:
    """Whether a guard conjunct may filter a generator's source before the
    source is paired with the outer stream.

    ``deps`` are the stream variables the conjunct mentions, ``pat`` the
    ones the generator's pattern binds, and ``eq_sides`` the stream
    variables of each side when the conjunct is an equality (else empty).
    A conjunct fuses when it mentions only ``pat`` variables, or when it is
    a *key equality*: one side mentions only ``pat`` variables and the
    other none of them.  The decorrelation rule (``repro.core``) compiles
    such a filter over a loop-invariant source into an equi-join keyed on
    both sides, instead of a filter over the loop x source product.
    """
    if deps <= pat:
        return True
    if len(eq_sides) != 2:
        return False
    lhs, rhs = eq_sides
    return bool(lhs and lhs <= pat and not rhs & pat
                or rhs and rhs <= pat and not lhs & pat)


def invariant_prefix(gens: list[tuple[set[str], set[str]]],
                     conjs: list[tuple[int, set[str], list[set[str]]]],
                     later: set[str],
                     varies: Callable[[str], bool]) -> list[int]:
    """Invariant-prefix reordering: the order in which to bind the
    comprehension's leading generators (empty when the rule does not
    apply).

    ``gens`` gives the source names and pattern names of each generator in
    the comprehension's leading run of generators and guards; ``conjs``
    gives each guard conjunct in that run the number of generators before
    it, its names and, when it is an equality, the names of each side;
    ``later`` holds the names bound after the run, and ``varies(name)``
    says whether an environment value may differ per iteration (a
    lambda-bound argument).

    The rule applies to the longest run of at least two leading generators
    whose sources mention neither a stream variable nor a varying name,
    when a conjunct among them is a key equality between one generator's
    pattern variables and a varying name (``fac == f``), that generator is
    not the first (else guard fusion already keys the first source to the
    loop), and non-varying key equalities among the generators join them
    all (``feat == feat2``).  The loop-keyed generator goes first, then
    repeatedly the earliest generator keyed to those before it, so guard
    fusion (:func:`fusible`) turns every conjunct into a join key and the
    decorrelation rule (``repro.core``) joins the first source to the loop
    and each later one to the stream -- instead of crossing the loop with
    the first source.  Every step then does work proportional to the rows
    the loop reaches; the caller restores the comprehension's order by
    sorting on the sources' positions.
    """
    closed: list[set[str]] = []  # pattern names of the closed generators
    for src, pat in gens:
        names = src | pat
        if names & later.union(*closed) or any(map(varies, names)):
            break
        closed.append(pat)
    for k in range(len(closed), 1, -1):
        order = _join_order(closed[:k], gens[k:], conjs, later, varies)
        if order:
            return order
    return []


def _join_order(pats: list[set[str]], rest: list[tuple[set[str], set[str]]],
                conjs: list[tuple[int, set[str], list[set[str]]]],
                later: set[str], varies: Callable[[str], bool]) -> list[int]:
    """:func:`invariant_prefix`'s order for the generators binding
    ``pats`` (empty when it must leave them as they are)."""
    k = len(pats)
    bound: set[str] = set().union(*pats)
    stream = later.union(*(pat for _, pat in rest))
    if bound & stream:
        return []

    def varying(names: set[str]) -> bool:
        return bool(names & stream) or any(map(varies, names - bound))

    keys: list[list[set[str]]] = []  # prefix names of each equality's sides
    loop_keys: list[set[str]] = []  # prefix side of each key to the loop
    for after, names, sides in conjs:
        if after > k or len(sides) != 2:
            continue
        if not varying(names):
            keys.append([side & bound for side in sides])
        for own, other in (sides, sides[::-1]):
            if (own & bound and not varying(own)
                    and not other & (bound | stream) and varying(other)):
                loop_keys.append(own & bound)
    keyed = [i for i in range(k) if any(own <= pats[i] for own in loop_keys)]
    if not keyed or keyed[0] == 0:
        return []
    order = [keyed[0]]
    while len(order) < k:
        placed = set().union(*(pats[i] for i in order))
        nxt = next((i for i in range(k) if i not in order and any(
            lhs and rhs and (lhs <= pats[i] and rhs <= placed
                             or rhs <= pats[i] and lhs <= placed)
            for lhs, rhs in keys)), None)
        if nxt is None:
            return []  # not one connected join: reordering would cross
        order.append(nxt)
    return order


def value_varies(value: Any) -> bool:
    """Whether an environment value may differ per iteration: a query with
    free variables (a lambda-bound argument), or a Python function, whose
    closure the desugarer cannot see."""
    if isinstance(value, Q):
        return bool(free_vars(value.exp))
    return callable(value)


def position_var(i: int) -> str:
    """The variable bound to the position of the prefix's ``i``-th source
    after reordering; no identifier a user can write."""
    return f"#{i}"


def _reorder_invariant_prefix(comp: P.PComp,
                              env: Scope) -> tuple[P.PQual, ...]:
    """Rewrite ``[e | p1 <- s1, p2 <- s2, g, rest]`` into
    ``[e | (p2, #1) <- number(s2), (p1, #0) <- number(s1),
    then sortWith by (#0, #1), g, rest]`` in the order
    :func:`invariant_prefix` picks; the sort binds the prefix in its
    original order again before ``rest``."""
    quals = comp.quals
    lead = 0
    while lead < len(quals) and isinstance(quals[lead], (P.PGen, P.PGuard)):
        lead += 1
    if sum(isinstance(q, P.PGen) for q in quals[:lead]) < 2:
        return quals  # the common case; skip the name analysis
    gens: list[tuple[set[str], set[str]]] = []
    conjs: list[tuple[int, set[str], list[set[str]]]] = []
    for qual in quals[:lead]:
        if isinstance(qual, P.PGen):
            gens.append((_names(qual.src), _pat_names(qual.pat)))
        elif isinstance(qual, P.PGuard):
            conjs.extend((len(gens), _names(c), _eq_sides(c))
                         for c in _conjuncts(qual.cond))
    later: set[str] = set()
    for qual in quals[lead:]:
        if isinstance(qual, P.PGen):
            later |= _pat_names(qual.pat)
        elif isinstance(qual, P.PLet):
            later.add(qual.name)
    order = invariant_prefix(gens, conjs, later,
                             lambda n: value_varies(env.get(n)))
    if not order:
        return quals
    at = [i for i, q in enumerate(quals[:lead]) if isinstance(q, P.PGen)]
    numbered: list[P.PQual] = []
    for i in order:
        gen = quals[at[i]]
        # the source is closed: number it now and bind it as a literal query
        src = C.number(_as_list_source(_eval(gen.src, dict(env))))
        numbered.append(P.PGen(
            P.PTuplePat((gen.pat, P.PVarPat(position_var(i)))), P.PLit(src)))
    key = P.PTuple(tuple(P.PVar(position_var(i)) for i in range(len(order))))
    moved = {at[i] for i in order}
    rest = [q for j, q in enumerate(quals) if j not in moved]
    return (*numbered, P.PSort(key, False), *rest)


class FusedGen(P.PQual):
    """A generator with guard conjuncts fused into its source: the source
    list is filtered *before* it is paired with the outer stream."""

    def __init__(self, pat: P.PPat, src: P.PExpr, fused: list[P.PExpr]):
        self.pat = pat
        self.src = src
        self.fused = fused


def _step(qual: P.PQual, stream: Q | None,
          binders: dict[str, Extractor], env: Scope):
    if isinstance(qual, (P.PGen, FusedGen)):
        return _add_generator(qual, stream, binders, env)
    if stream is None and not isinstance(qual, P.PGen):
        # Guards/lets before any generator run over the unit stream.
        stream, binders = to_q([0]), dict(binders)
    if isinstance(qual, P.PGuard):
        new = C.ffilter(
            lambda t: _eval(qual.cond, _scope(binders, t, env)), stream)
        return new, binders
    if isinstance(qual, P.PLet):
        new = C.fmap(
            lambda t: tup(t, _eval(qual.value, _scope(binders, t, env))),
            stream)
        shifted = {n: _compose(ex, 0) for n, ex in binders.items()}
        shifted[qual.name] = _compose(_identity, 1)
        return new, shifted
    if isinstance(qual, P.PGroup):
        new = C.group_with(
            lambda t: _eval(qual.key, _scope(binders, t, env)), stream)
        grouped = {
            n: _group_binder(ex) for n, ex in binders.items()
        }
        return new, grouped
    if isinstance(qual, P.PSort):
        if qual.descending:
            new = C.sort_with_desc(
                lambda t: _eval(qual.key, _scope(binders, t, env)), stream)
        else:
            new = C.sort_with(
                lambda t: _eval(qual.key, _scope(binders, t, env)), stream)
        return new, binders
    raise ComprehensionSyntaxError(f"unknown qualifier {qual!r}")


def _add_generator(gen: "P.PGen | FusedGen", stream: Q | None,
                   binders: dict[str, Extractor], env: Scope):
    pat = gen.pat
    if stream is None:
        src = _generator_source(gen, dict(env))
        new_binders: dict[str, Extractor] = {}
        _bind_pattern(pat, _identity, new_binders)
        return src, new_binders
    # Dependent generators: the source may mention earlier variables, so it
    # is (re-)evaluated inside the iteration -- loop-lifting turns this into
    # a single data-parallel plan regardless.
    new = C.concat_map(
        lambda t: C.fmap(
            lambda y: tup(t, y),
            _generator_source(gen, _scope(binders, t, env))),
        stream)
    shifted = {n: _compose(ex, 0) for n, ex in binders.items()}
    _bind_pattern(pat, _compose(_identity, 1), shifted)
    return new, shifted


def _generator_source(gen: "P.PGen | FusedGen", scope: dict) -> Q:
    """Evaluate a generator source, applying fused guard conjuncts as a
    filter over the source *before* it is paired with the stream."""
    src = _as_list_source(_eval(gen.src, scope))
    fused = getattr(gen, "fused", None)
    if not fused:
        return src

    def pred(y: Q) -> Q:
        inner = dict(scope)
        _destructure(gen.pat, y, inner)
        out = to_q(_eval(fused[0], inner))
        for conj in fused[1:]:
            out = out & to_q(_eval(conj, inner))
        return out

    return C.ffilter(pred, src)


def _as_list_source(value: Any) -> Q:
    src = to_q(value)
    if not isinstance(src.ty, ListT):
        raise QTypeError(f"generator source must be a list query, got "
                         f"{src.ty.show()}")
    return src


def _bind_pattern(pat: P.PPat, extract: Extractor,
                  binders: dict[str, Extractor]) -> None:
    if isinstance(pat, P.PWildPat):
        return
    if isinstance(pat, P.PVarPat):
        binders[pat.name] = extract
        return
    if isinstance(pat, P.PTuplePat):
        for i, sub in enumerate(pat.parts):
            _bind_pattern(sub, _index_extract(extract, i), binders)
        return
    raise ComprehensionSyntaxError(f"unsupported pattern {pat!r}")


def _identity(t: Q) -> Q:
    return t


def _compose(ex: Extractor, idx: int) -> Extractor:
    return lambda t: ex(t[idx])


def _index_extract(ex: Extractor, idx: int) -> Extractor:
    return lambda t: ex(t)[idx]


def _group_binder(ex: Extractor) -> Extractor:
    """After ``group by``, a variable denotes the list of its values within
    the group."""
    return lambda g: C.fmap(lambda t: ex(t), g)


def _scope(binders: Mapping[str, Extractor], t: Q, env: Scope) -> dict:
    scope = dict(env)
    for name, ex in binders.items():
        scope[name] = ex(t)
    return scope


def _names(e: P.PExpr) -> set[str]:
    out: set[str] = set()
    stack: list[Any] = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, P.PVar):
            out.add(node.name)
        elif isinstance(node, P.PLam):
            out |= _names(node.body) - _pat_names(node.pat)
        elif isinstance(node, P.PComp):
            out |= _comp_free_names(node)
        elif hasattr(node, "__dataclass_fields__"):
            for field in node.__dataclass_fields__:
                val = getattr(node, field)
                if isinstance(val, (P.PExpr, P.PQual, P.PPat)):
                    stack.append(val)
                elif isinstance(val, tuple):
                    stack.extend(v for v in val
                                 if isinstance(v, (P.PExpr, P.PQual, P.PPat)))
    return out


def _eq_sides(e: P.PExpr) -> list[set[str]]:
    """The names of each side of an equality (empty for anything else)."""
    if isinstance(e, P.PBin) and e.op == "eq":
        return [_names(e.lhs), _names(e.rhs)]
    return []


def _pat_vars(pat: P.PPat) -> list[str]:
    """The variables a pattern binds, left to right."""
    if isinstance(pat, P.PVarPat):
        return [pat.name]
    if isinstance(pat, P.PTuplePat):
        return [n for sub in pat.parts for n in _pat_vars(sub)]
    return []


def _pat_names(pat: P.PPat) -> set[str]:
    return set(_pat_vars(pat))


def _comp_free_names(comp: P.PComp) -> set[str]:
    bound: set[str] = set()
    free: set[str] = set()
    for qual in comp.quals:
        if isinstance(qual, P.PGen):
            free |= _names(qual.src) - bound
            bound |= _pat_names(qual.pat)
        elif isinstance(qual, P.PGuard):
            free |= _names(qual.cond) - bound
        elif isinstance(qual, P.PLet):
            free |= _names(qual.value) - bound
            bound.add(qual.name)
        elif isinstance(qual, (P.PGroup, P.PSort)):
            free |= _names(qual.key) - bound
    free |= _names(comp.head) - bound
    return free


# ----------------------------------------------------------------------
# expression evaluation
# ----------------------------------------------------------------------

def _eval(e: P.PExpr, scope: dict) -> Any:
    if isinstance(e, P.PLit):
        return to_q(e.value)
    if isinstance(e, P.PVar):
        return _lookup(e.name, scope)
    if isinstance(e, P.PTuple):
        return tup(*(_eval(p, scope) for p in e.parts))
    if isinstance(e, P.PList):
        if not e.elems:
            raise ComprehensionSyntaxError(
                "the element type of a bare [] cannot be inferred; use "
                "nil(ty) passed through the environment")
        elems = [to_q(_eval(x, scope)) for x in e.elems]
        out = nil(elems[0].ty)
        for elem in reversed(elems):
            out = C.cons(elem, out)
        return out
    if isinstance(e, P.PProj):
        operand = to_q(_eval(e.operand, scope))
        if isinstance(e.field, int):
            return operand[e.field]
        return getattr(operand, e.field)
    if isinstance(e, P.PBin):
        return _eval_bin(e, scope)
    if isinstance(e, P.PUn):
        operand = to_q(_eval(e.operand, scope))
        return ~operand if e.op == "not" else -operand
    if isinstance(e, P.PIf):
        return cond(_eval(e.cond, scope), _eval(e.then_, scope),
                    _eval(e.else_, scope))
    if isinstance(e, P.PLam):
        def fn(arg: Q) -> Any:
            inner = dict(scope)
            _destructure(e.pat, arg, inner)
            return _eval(e.body, inner)
        return fn
    if isinstance(e, P.PCall):
        fn = _eval_callee(e.fn, scope)
        args = [_eval(a, scope) for a in e.args]
        return fn(*args)
    if isinstance(e, P.PComp):
        return desugar_comprehension(e, scope)
    raise ComprehensionSyntaxError(f"cannot evaluate {e!r}")


def _destructure(pat: P.PPat, value: Q, scope: dict) -> None:
    if isinstance(pat, P.PWildPat):
        return
    if isinstance(pat, P.PVarPat):
        scope[pat.name] = value
        return
    if isinstance(pat, P.PTuplePat):
        for i, sub in enumerate(pat.parts):
            _destructure(sub, to_q(value)[i], scope)
        return
    raise ComprehensionSyntaxError(f"unsupported pattern {pat!r}")


def _eval_bin(e: P.PBin, scope: dict) -> Any:
    lhs = _eval(e.lhs, scope)
    rhs = _eval(e.rhs, scope)
    if e.op in ("append", "cons"):
        return {"append": C.append, "cons": C.cons}[e.op](lhs, rhs)
    lq = to_q(lhs)
    ops: dict[str, Callable[[Q, Any], Q]] = {
        "or": lambda a, b: a | b,
        "and": lambda a, b: a & b,
        "eq": lambda a, b: a == b,
        "ne": lambda a, b: a != b,
        "lt": lambda a, b: a < b,
        "le": lambda a, b: a <= b,
        "gt": lambda a, b: a > b,
        "ge": lambda a, b: a >= b,
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
        "idiv": lambda a, b: a // b,
        "mod": lambda a, b: a % b,
    }
    return ops[e.op](lq, rhs)


def _eval_callee(e: P.PExpr, scope: dict) -> Callable[..., Any]:
    if isinstance(e, P.PVar):
        if e.name in scope:
            fn = scope[e.name]
            if not callable(fn):
                raise ComprehensionSyntaxError(
                    f"{e.name!r} is not callable")
            return fn
        if e.name in _BUILTIN_FNS:
            return _BUILTIN_FNS[e.name]
        raise ComprehensionSyntaxError(f"unknown function {e.name!r}")
    fn = _eval(e, scope)
    if not callable(fn):
        raise ComprehensionSyntaxError(f"expression is not callable: {e!r}")
    return fn


def _lookup(name: str, scope: dict) -> Any:
    if name in scope:
        val = scope[name]
        return val if callable(val) else to_q(val)
    if name in _BUILTIN_FNS:
        return _BUILTIN_FNS[name]
    raise ComprehensionSyntaxError(
        f"unbound name {name!r}; bind it via a generator, 'let', or pass "
        f"it as a keyword argument to qc()")
