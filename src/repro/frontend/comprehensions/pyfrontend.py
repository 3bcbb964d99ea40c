"""``pyq`` -- Python-native comprehension syntax via ``ast`` introspection.

Where :func:`qc` gives the paper's Haskell-flavoured surface syntax,
``pyq`` accepts a *Python* list comprehension (as source text) and
desugars it through the standard ``ast`` module::

    pyq('[m for (f, m) in meanings for (fac, f2) in features'
        ' if f == f2 and fac == x]',
        meanings=..., features=..., x=...)

Supported constructs: multiple (dependent) generators with tuple targets,
``if`` guards, conditional expressions, boolean/arith/comparison operators,
nested comprehensions, lambdas, calls to environment functions, and a
mapping of Python builtins onto the query prelude (``len`` -> ``length``,
``sum``, ``max``/``min``, ``any``/``all``, ``sorted(key=...)``,
``reversed``, ``enumerate``, ``zip``, ``abs``, ``float``).

As in ``qc``, each ``and`` conjunct of an ``if`` that ``desugar.fusible``
accepts filters its generator's source before the source is paired with
the stream, so an equality across generators (``f == f2`` above) compiles
to a join key rather than a filter over a cross product; and when the
leading generators are loop invariant and a conjunct keys a later one to a
lambda-bound value (``fac == x``), that generator is bound first
(``desugar.invariant_prefix``) and the prefix's order restored by a sort,
so no generator is crossed with the loop.

Python has no ``group by`` comprehension syntax; grouping is reached via
``group_with`` / the ``qc`` quoter.
"""

from __future__ import annotations

import ast
from typing import Any, Callable, Mapping

from ...errors import ComprehensionSyntaxError, QTypeError
from ...ftypes import ListT
from .. import combinators as C
from ..q import Q, cond, max_q, min_q, to_q, tup
from .desugar import fusible, invariant_prefix, position_var, value_varies


def pyq(source: str, **env: Any) -> Q:
    """Desugar a Python comprehension string into a query."""
    try:
        tree = ast.parse(source.strip(), mode="eval")
    except SyntaxError as err:
        raise ComprehensionSyntaxError(f"invalid Python syntax: {err}") from None
    body = tree.body
    if not isinstance(body, (ast.ListComp, ast.GeneratorExp)):
        raise ComprehensionSyntaxError(
            "pyq expects a list comprehension or generator expression")
    return _comp(body, dict(env))


def pye(source: str, **env: Any) -> Q:
    """Translate a bare Python expression string into a query."""
    try:
        tree = ast.parse(source.strip(), mode="eval")
    except SyntaxError as err:
        raise ComprehensionSyntaxError(f"invalid Python syntax: {err}") from None
    return to_q(_expr(tree.body, dict(env)))


# ----------------------------------------------------------------------
# comprehension desugaring (same stream/binder scheme as qc)
# ----------------------------------------------------------------------

def _comp(node: "ast.ListComp | ast.GeneratorExp", env: dict) -> Q:
    stream: Q | None = None
    binders: dict[str, Callable[[Q], Q]] = {}
    bound: set[str] = set()
    gens, positions = _reorder_invariant_prefix(node, env)
    for n, gen in enumerate(gens, 1):
        if gen.is_async:
            raise ComprehensionSyntaxError("async comprehensions are not queries")
        pat = _names(gen.target)
        bound |= pat
        fused, after = [], []
        for conj in (c for guard in gen.ifs for c in _conjuncts(guard)):
            key = fusible(_names(conj) & bound,
                          [_names(s) & bound for s in _eq_sides(conj)], pat)
            (fused if key else after).append(conj)
        stream, binders = _add_gen(gen.target, gen.iter, fused, stream,
                                   binders, env)
        for guard in after:
            stream = C.ffilter(
                lambda t, g=guard: _expr(g, _scope(binders, t, env)), stream)
        if n == len(positions):  # the reordered prefix, in its own order
            stream = C.sort_with(
                lambda t, b=binders: tup(*(b[p](t) for p in positions)),
                stream)
    assert stream is not None  # Python grammar guarantees >= 1 generator
    return C.fmap(lambda t: _expr(node.elt, _scope(binders, t, env)), stream)


def _reorder_invariant_prefix(node: "ast.ListComp | ast.GeneratorExp",
                              env: dict) -> tuple[list[ast.comprehension],
                                                  list[str]]:
    """``qc``'s invariant-prefix reordering (``desugar.invariant_prefix``):
    the generators with the prefix reordered and each of its sources
    numbered, and the position variables, in the prefix's original order,
    that the caller sorts by once the prefix is bound (none when the rule
    does not apply)."""
    gens = node.generators
    if len(gens) < 2:
        return gens, []  # the common case; skip the name analysis
    conjs = [(i + 1, c) for i, gen in enumerate(gens)
             for guard in gen.ifs for c in _conjuncts(guard)]
    order = invariant_prefix(
        [(_names(g.iter), _names(g.target)) for g in gens],
        [(after, _names(c), [_names(s) for s in _eq_sides(c)])
         for after, c in conjs],
        set(), lambda n: value_varies(env.get(n)))
    if not order:
        return gens, []
    k = len(order)
    bound_after: list[set[str]] = []  # prefix names bound after each
    for i in order:
        bound_after.append(_names(gens[i].target).union(*bound_after[-1:]))
    # a prefix conjunct filters the first generator that binds its names
    ifs: list[list[ast.expr]] = [[] for _ in order]
    for after, conj in conjs:
        if after <= k:
            need = _names(conj) & bound_after[-1]
            j = next(j for j, b in enumerate(bound_after) if need <= b)
            ifs[j].append(conj)
    numbered = [ast.comprehension(
        ast.Tuple([gens[i].target, ast.Name(position_var(i), ast.Store())],
                  ast.Store()),
        # the source is closed: number it now and bind it as a constant
        ast.Constant(C.number(_as_list(_expr(gens[i].iter, dict(env))))),
        ifs[j], 0) for j, i in enumerate(order)]
    return [*numbered, *gens[k:]], [position_var(i) for i in range(k)]


def _eq_sides(conj: ast.expr) -> list[ast.expr]:
    """The two sides of a single equality comparison (else empty)."""
    if (isinstance(conj, ast.Compare) and len(conj.ops) == 1
            and isinstance(conj.ops[0], ast.Eq)):
        return [conj.left, conj.comparators[0]]
    return []


def _conjuncts(node: ast.expr) -> list[ast.expr]:
    """Split a guard into its top-level ``and`` conjuncts."""
    if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
        return [c for v in node.values for c in _conjuncts(v)]
    return [node]


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _add_gen(target: ast.expr, src: ast.expr, fused: list[ast.expr],
             stream: Q | None, binders: dict, env: dict):
    if stream is None:
        srcq = _source(target, src, fused, dict(env))
        fresh: dict[str, Callable[[Q], Q]] = {}
        _bind(target, lambda t: t, fresh)
        return srcq, fresh
    new = C.concat_map(
        lambda t: C.fmap(
            lambda y: tup(t, y),
            _source(target, src, fused, _scope(binders, t, env))),
        stream)
    shifted = {n: (lambda t, ex=ex: ex(t[0])) for n, ex in binders.items()}
    _bind(target, lambda t: t[1], shifted)
    return new, shifted


def _source(target: ast.expr, src: ast.expr, fused: list[ast.expr],
            scope: dict) -> Q:
    """A generator's source, filtered by its fused guard conjuncts before
    it is paired with the stream (see ``desugar.fusible``)."""
    srcq = _as_list(_expr(src, scope))
    if not fused:
        return srcq
    own: dict[str, Callable[[Q], Q]] = {}
    _bind(target, lambda y: y, own)

    def pred(y: Q) -> Q:
        inner = {**scope, **{n: ex(y) for n, ex in own.items()}}
        out = to_q(_expr(fused[0], inner))
        for conj in fused[1:]:
            out = out & to_q(_expr(conj, inner))
        return out

    return C.ffilter(pred, srcq)


def _bind(target: ast.expr, extract: Callable[[Q], Q], binders: dict) -> None:
    if isinstance(target, ast.Name):
        binders[target.id] = extract
        return
    if isinstance(target, ast.Tuple):
        for i, sub in enumerate(target.elts):
            _bind(sub, lambda t, ex=extract, i=i: ex(t)[i], binders)
        return
    raise ComprehensionSyntaxError(
        f"unsupported comprehension target {ast.dump(target)}")


def _scope(binders: Mapping[str, Callable[[Q], Q]], t: Q, env: dict) -> dict:
    scope = dict(env)
    for name, ex in binders.items():
        scope[name] = ex(t)
    return scope


def _as_list(value: Any) -> Q:
    q = to_q(value)
    if not isinstance(q.ty, ListT):
        raise QTypeError(f"generator source must be a list query, got "
                         f"{q.ty.show()}")
    return q


# ----------------------------------------------------------------------
# expression translation
# ----------------------------------------------------------------------

_CMP_OPS = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
}

_BIN_OPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.BitAnd: lambda a, b: a & b,
    ast.BitOr: lambda a, b: a | b,
}


def _expr(node: ast.expr, scope: dict) -> Any:
    if isinstance(node, ast.Constant):
        return to_q(node.value)
    if isinstance(node, ast.Name):
        return _name(node.id, scope)
    if isinstance(node, ast.Tuple):
        return tup(*(_expr(e, scope) for e in node.elts))
    if isinstance(node, ast.List):
        elems = [to_q(_expr(e, scope)) for e in node.elts]
        if not elems:
            raise ComprehensionSyntaxError(
                "cannot infer the element type of []; pass nil(ty) via the "
                "environment")
        from ..q import nil
        out = nil(elems[0].ty)
        for elem in reversed(elems):
            out = C.cons(elem, out)
        return out
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        return _comp(node, scope)
    if isinstance(node, ast.Compare):
        return _compare(node, scope)
    if isinstance(node, ast.BoolOp):
        vals = [to_q(_expr(v, scope)) for v in node.values]
        acc = vals[0]
        for v in vals[1:]:
            acc = (acc & v) if isinstance(node.op, ast.And) else (acc | v)
        return acc
    if isinstance(node, ast.BinOp):
        handler = _BIN_OPS.get(type(node.op))
        if handler is None:
            raise ComprehensionSyntaxError(
                f"unsupported operator {type(node.op).__name__}")
        return handler(to_q(_expr(node.left, scope)), _expr(node.right, scope))
    if isinstance(node, ast.UnaryOp):
        operand = to_q(_expr(node.operand, scope))
        if isinstance(node.op, ast.Not):
            return ~operand
        if isinstance(node.op, ast.USub):
            return -operand
        raise ComprehensionSyntaxError(
            f"unsupported unary operator {type(node.op).__name__}")
    if isinstance(node, ast.IfExp):
        return cond(_expr(node.test, scope), _expr(node.body, scope),
                    _expr(node.orelse, scope))
    if isinstance(node, ast.Subscript):
        operand = to_q(_expr(node.value, scope))
        idx = node.slice
        if isinstance(idx, ast.Constant) and isinstance(idx.value, int):
            return operand[idx.value]
        return operand[to_q(_expr(idx, scope))]
    if isinstance(node, ast.Attribute):
        return getattr(to_q(_expr(node.value, scope)), node.attr)
    if isinstance(node, ast.Call):
        return _call(node, scope)
    if isinstance(node, ast.Lambda):
        return _lambda(node, scope)
    if isinstance(node, ast.Starred):
        raise ComprehensionSyntaxError("starred expressions are not queries")
    raise ComprehensionSyntaxError(
        f"unsupported Python construct {type(node).__name__}")


def _compare(node: ast.Compare, scope: dict) -> Q:
    left = to_q(_expr(node.left, scope))
    result: Q | None = None
    for op, comparator in zip(node.ops, node.comparators):
        right = to_q(_expr(comparator, scope))
        if isinstance(op, ast.In):
            clause = C.elem(left, right)
        elif isinstance(op, ast.NotIn):
            clause = C.not_elem(left, right)
        else:
            handler = _CMP_OPS.get(type(op))
            if handler is None:
                raise ComprehensionSyntaxError(
                    f"unsupported comparison {type(op).__name__}")
            clause = handler(left, right)
        result = clause if result is None else (result & clause)
        left = right
    assert result is not None
    return result


def _lambda(node: ast.Lambda, scope: dict) -> Callable[..., Any]:
    params = [a.arg for a in node.args.args]
    if (node.args.vararg or node.args.kwarg or node.args.kwonlyargs
            or node.args.defaults):
        raise ComprehensionSyntaxError(
            "query lambdas take plain positional parameters only")

    def fn(*args: Any) -> Any:
        if len(args) != len(params):
            raise QTypeError(f"lambda expects {len(params)} arguments, "
                             f"got {len(args)}")
        inner = dict(scope)
        inner.update(zip(params, args))
        return _expr(node.body, inner)

    return fn


def _call(node: ast.Call, scope: dict) -> Any:
    if node.keywords and not (isinstance(node.func, ast.Name)
                              and node.func.id == "sorted"):
        raise ComprehensionSyntaxError("keyword arguments are only supported "
                                       "on sorted(xs, key=...)")
    args = [_expr(a, scope) for a in node.args]
    if isinstance(node.func, ast.Name):
        name = node.func.id
        if name in scope and callable(scope[name]):
            return scope[name](*args)
        builtin = _PY_BUILTINS.get(name)
        if builtin is not None:
            return builtin(node, args, scope)
        raise ComprehensionSyntaxError(f"unknown function {name!r}")
    fn = _expr(node.func, scope)
    if not callable(fn):
        raise ComprehensionSyntaxError("expression is not callable")
    return fn(*args)


def _py_sorted(node: ast.Call, args: list, scope: dict) -> Q:
    key: Callable[..., Any] = lambda x: x
    reverse = False
    for kw in node.keywords:
        if kw.arg == "key":
            key = _expr(kw.value, scope)
        elif kw.arg == "reverse":
            if not (isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, bool)):
                raise ComprehensionSyntaxError(
                    "sorted(..., reverse=) must be a literal bool")
            reverse = kw.value.value
        else:
            raise ComprehensionSyntaxError(f"sorted: unknown keyword {kw.arg!r}")
    which = C.sort_with_desc if reverse else C.sort_with
    return which(key, args[0])


def _py_max(node: ast.Call, args: list, scope: dict) -> Q:
    if len(args) == 1:
        return C.maximum_q(args[0])
    if len(args) == 2:
        return max_q(args[0], args[1])
    raise ComprehensionSyntaxError("max takes a list or two scalars")


def _py_min(node: ast.Call, args: list, scope: dict) -> Q:
    if len(args) == 1:
        return C.minimum_q(args[0])
    if len(args) == 2:
        return min_q(args[0], args[1])
    raise ComprehensionSyntaxError("min takes a list or two scalars")


def _py_enumerate(node: ast.Call, args: list, scope: dict) -> Q:
    # Python yields (index, element) starting at 0; number is 1-based (x, i).
    return C.fmap(lambda p: tup(p[1] - 1, p[0]), C.number(args[0]))


_PY_BUILTINS: dict[str, Callable[[ast.Call, list, dict], Any]] = {
    "len": lambda n, a, s: C.length(a[0]),
    "sum": lambda n, a, s: C.fsum(a[0]),
    "abs": lambda n, a, s: abs(to_q(a[0])),
    "float": lambda n, a, s: to_q(a[0]).to_double(),
    "any": lambda n, a, s: C.or_q(a[0]),
    "all": lambda n, a, s: C.and_q(a[0]),
    "reversed": lambda n, a, s: C.reverse(a[0]),
    "list": lambda n, a, s: to_q(a[0]),
    "zip": lambda n, a, s: C.zip_q(a[0], a[1]) if len(a) == 2
                           else C.zip3_q(a[0], a[1], a[2]),
    "sorted": _py_sorted,
    "max": _py_max,
    "min": _py_min,
    "enumerate": _py_enumerate,
}


def _name(name: str, scope: dict) -> Any:
    if name in scope:
        val = scope[name]
        return val if callable(val) else to_q(val)
    if name in ("True", "False"):  # pragma: no cover - Constants in py3
        return to_q(name == "True")
    raise ComprehensionSyntaxError(
        f"unbound name {name!r}; bind it in the comprehension or pass it "
        f"as a keyword argument to pyq()")
