"""SQL:1999 code generation from table-algebra plans.

The Pathfinder role (step 3 of Figure 2): lower an optimized algebra DAG
into SQL:1999 built from common table expressions, with
``ROW_NUMBER()``/``DENSE_RANK()`` window functions carrying the order and
surrogate encodings -- the same shapes as the appendix of the paper
("binding due to rank operator", "binding due to duplicate elimination").

Every operator node is rendered once, as one binding named ``t0000``,
``t0001``, ...; shared subplans appear once, mirroring the DAG.  The
renderings are assembled two ways:

* ``text``: a single ``WITH`` statement binding every node -- the EXPLAIN
  artifact and the appendix golden;
* ``script``: what the backends execute.  A host engine cannot index a
  CTE, so every join input would be scanned by nested loops.  The script
  instead stages the plan into temporary tables: a node becomes a table
  when it is the root, is referenced more than once, or is an input of
  an ``EqJoin``/``SemiJoin``/``AntiJoin``; each join input gets one index
  per distinct join-key column set.  Every other node is inlined as a CTE
  of the one ``INSERT`` that consumes it.  The script ends in the ordered
  ``SELECT``; its length depends only on the plan's shape.

Engine quirks -- identifier quoting, type names, literal syntax, window-
function spellings, base-table qualification, temp-table DDL -- are
delegated to a :class:`~repro.backends.sql.dbapi.Dialect` (default:
SQLite); division and modulus are emitted as the UDF names the adapter
registers so that Haskell's flooring ``div``/``mod`` semantics survive
the translation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...algebra import (
    AntiJoin,
    Attach,
    BinApp,
    Const,
    Cross,
    Distinct,
    EqJoin,
    GroupAggr,
    LitTable,
    Node,
    Project,
    RowNum,
    RowRank,
    Select,
    SemiJoin,
    TableScan,
    UnApp,
    UnionAll,
    postorder,
    schema_of,
)
from ...errors import ExecutionError
from ...ftypes import AtomT
from .dbapi import SQLITE_DIALECT, Dialect


@dataclass
class GeneratedSQL:
    """One bundle member: its single-statement form and its staged
    script, rendered from one walk over the plan."""

    text: str  # the WITH statement (EXPLAIN artifact, never executed)
    columns: tuple[str, ...]  # iter, pos, item... in output order
    script: tuple[str, ...]  # staging statements, then the final SELECT
    temp_tables: int  # CREATE TEMP TABLEs in ``script``
    indexes: int  # CREATE INDEXes in ``script``


# Module-level helpers bound to the default (SQLite) dialect, kept for
# callers that predate the dialect layer.

def sql_type(ty: AtomT) -> str:
    """Column type name for CREATE TABLE statements."""
    return SQLITE_DIALECT.type_name(ty)


def render_literal(value, ty: AtomT) -> str:
    return SQLITE_DIALECT.literal(value, ty)


def quote_ident(name: str) -> str:
    return SQLITE_DIALECT.quote_ident(name)


def generate_sql(root: Node, out_cols: tuple[str, ...],
                 order_by: tuple[str, ...],
                 dialect: Dialect = SQLITE_DIALECT) -> GeneratedSQL:
    """Generate the SQL computing the plan ``root``, projecting
    ``out_cols`` and ordering the result by ``order_by``."""
    q = dialect.quote_ident
    nodes = list(postorder(root))
    names: dict[int, str] = {}
    bodies: list[str] = []
    ctes: list[str] = []
    memo: dict = {}
    uses: dict[int, int] = {}
    # join input -> one key column tuple per distinct key column set
    keys: dict[int, list[tuple[str, ...]]] = {}
    for i, node in enumerate(nodes):
        name = f"t{i:04d}"
        names[id(node)] = name
        body = _render(node, names, memo, dialect)
        cols = ", ".join(q(c) for c in schema_of(node, memo))
        bodies.append(body)
        ctes.append(f"{name}({cols}) AS (\n{body}\n)")
        for child in node.children:
            uses[id(child)] = uses.get(id(child), 0) + 1
        if isinstance(node, (EqJoin, SemiJoin, AntiJoin)):
            for side, child in enumerate(node.children):
                key = tuple(pair[side] for pair in node.pairs)
                seen = keys.setdefault(id(child), [])
                if all(set(k) != set(key) for k in seen):
                    seen.append(key)
    select = ", ".join(q(c) for c in out_cols)
    order = ", ".join(f"{q(c)} ASC" for c in order_by)
    final = (f"SELECT {select}\nFROM {names[id(root)]}"
             + (f"\nORDER BY {order}" if order_by else ""))
    text = "WITH\n" + ",\n".join(ctes) + f"\n{final};"

    staged = {id(root)} | set(keys) | {n for n, k in uses.items() if k > 1}
    script: list[str] = []
    # An unstaged node has exactly one consumer: its CTE, preceded by
    # those of its own unstaged inputs, travels up to the staged node
    # whose INSERT reads it.
    inlined: dict[int, list[str]] = {}
    for node, body, cte in zip(nodes, bodies, ctes):
        local = [c for child in node.children if id(child) not in staged
                 for c in inlined.pop(id(child))]
        if id(node) not in staged:
            inlined[id(node)] = local + [cte]
            continue
        source = "WITH\n" + ",\n".join(local) + "\n" + body if local else body
        script += dialect.temp_table(names[id(node)], schema_of(node, memo),
                                     source, keys.get(id(node), []))
    script.append(final)
    return GeneratedSQL(text, out_cols, tuple(script), len(staged),
                        sum(len(k) for k in keys.values()))


# ----------------------------------------------------------------------
# per-operator rendering
# ----------------------------------------------------------------------

def _cols(node: Node, memo) -> list[str]:
    return list(schema_of(node, memo))


def _select_list(cols: list[str], d: Dialect) -> str:
    return ", ".join(d.quote_ident(c) for c in cols)


def _render(node: Node, names: dict[int, str], memo, d: Dialect) -> str:
    q = d.quote_ident

    if isinstance(node, LitTable):
        if not node.rows:
            nulls = ", ".join(
                f"CAST(NULL AS {d.type_name(ty)}) AS {q(n)}"
                for n, ty in node.schema)
            return f"  SELECT {nulls} WHERE 0"
        selects = []
        for row in node.rows:
            cells = ", ".join(
                f"{d.literal(v, ty)} AS {q(n)}"
                for v, (n, ty) in zip(row, node.schema))
            selects.append(f"  SELECT {cells}")
        return "\n  UNION ALL\n".join(selects)

    if isinstance(node, TableScan):
        cols = ", ".join(f"{q(src)} AS {q(out)}"
                         for out, src, _ in node.columns)
        return f"  SELECT {cols}\n  FROM {d.base_table(node.table)}"

    child = names[id(node.children[0])] if node.children else None

    if isinstance(node, Attach):
        base = _select_list(_cols(node.children[0], memo), d)
        lit = d.literal(node.value, node.ty)
        return (f"  SELECT {base}, {lit} AS {q(node.col)}"
                f"\n  FROM {child}")

    if isinstance(node, Project):
        cols = ", ".join(f"{q(old)} AS {q(new)}"
                         for new, old in node.cols)
        return f"  SELECT {cols}\n  FROM {child}"

    if isinstance(node, Select):
        base = _select_list(_cols(node, memo), d)
        return (f"  SELECT {base}\n  FROM {child}"
                f"\n  WHERE {q(node.col)}")

    if isinstance(node, Distinct):
        base = _select_list(_cols(node, memo), d)
        # "binding due to duplicate elimination" (appendix)
        return f"  SELECT DISTINCT {base}\n  FROM {child}"

    if isinstance(node, (RowNum, RowRank)):
        base = _select_list(_cols(node.children[0], memo), d)
        order = ", ".join(f"{q(c)} {dr.upper()}"
                          for c, dr in node.order)
        if isinstance(node, RowNum):
            window = d.row_number(node.part, order)
        else:
            # "binding due to rank operator" (appendix)
            window = d.dense_rank(order)
        return (f"  SELECT {base},\n         {window} AS "
                f"{q(node.col)}\n  FROM {child}")

    if isinstance(node, Cross):
        left, right = (names[id(c)] for c in node.children)
        base = _select_list(_cols(node, memo), d)
        return f"  SELECT {base}\n  FROM {left}, {right}"

    if isinstance(node, EqJoin):
        left, right = (names[id(c)] for c in node.children)
        base = _select_list(_cols(node, memo), d)
        on = " AND ".join(f"{left}.{q(lc)} = {right}.{q(rc)}"
                          for lc, rc in node.pairs)
        return (f"  SELECT {base}\n  FROM {left}\n  JOIN {right}"
                f"\n    ON {on}")

    if isinstance(node, (SemiJoin, AntiJoin)):
        left, right = (names[id(c)] for c in node.children)
        base = _select_list(_cols(node, memo), d)
        on = " AND ".join(f"{right}.{q(rc)} = {left}.{q(lc)}"
                          for lc, rc in node.pairs)
        neg = "NOT " if isinstance(node, AntiJoin) else ""
        return (f"  SELECT {base}\n  FROM {left}\n  WHERE {neg}EXISTS "
                f"(SELECT 1 FROM {right} WHERE {on})")

    if isinstance(node, UnionAll):
        left, right = (names[id(c)] for c in node.children)
        cols = _cols(node, memo)
        base = _select_list(cols, d)
        return (f"  SELECT {base}\n  FROM {left}"
                f"\n  UNION ALL\n  SELECT {base}\n  FROM {right}")

    if isinstance(node, GroupAggr):
        parts = [q(c) for c in node.group]
        for func, in_col, out_col in node.aggs:
            parts.append(f"{_aggregate_sql(func, in_col, d)} AS "
                         f"{q(out_col)}")
        sql = f"  SELECT {', '.join(parts)}\n  FROM {child}"
        if node.group:
            sql += ("\n  GROUP BY "
                    + ", ".join(q(c) for c in node.group))
        return sql

    if isinstance(node, BinApp):
        base = _select_list(_cols(node.children[0], memo), d)
        expr = _binop_sql(node, d)
        return (f"  SELECT {base}, {expr} AS {q(node.out)}"
                f"\n  FROM {child}")

    if isinstance(node, UnApp):
        base = _select_list(_cols(node.children[0], memo), d)
        col = q(node.col)
        expr = {
            "not": f"(NOT {col})",
            "neg": f"(-{col})",
            "abs": f"ABS({col})",
            "to_double": f"CAST({col} AS REAL)",
            "upper": f"UPPER({col})",
            "lower": f"LOWER({col})",
            "strlen": f"LENGTH({col})",
            # dates/times are stored as ISO-8601 text: fixed-offset parts
            "year": f"CAST(SUBSTR({col}, 1, 4) AS INTEGER)",
            "month": f"CAST(SUBSTR({col}, 6, 2) AS INTEGER)",
            "day": f"CAST(SUBSTR({col}, 9, 2) AS INTEGER)",
            "hour": f"CAST(SUBSTR({col}, 1, 2) AS INTEGER)",
            "minute": f"CAST(SUBSTR({col}, 4, 2) AS INTEGER)",
            "second": f"CAST(SUBSTR({col}, 7, 2) AS INTEGER)",
        }[node.op]
        return (f"  SELECT {base}, {expr} AS {q(node.out)}"
                f"\n  FROM {child}")

    raise ExecutionError(f"cannot generate SQL for {node.label}")


def _aggregate_sql(func: str, in_col: "str | None", d: Dialect) -> str:
    if func == "count":
        return "COUNT(*)"
    col = d.quote_ident(in_col)
    return {
        "sum": f"SUM({col})",
        "min": f"MIN({col})",
        "max": f"MAX({col})",
        "avg": f"AVG(CAST({col} AS REAL))",
        # booleans are stored as 0/1, so EVERY/SOME reduce to MIN/MAX
        "all": f"MIN({col})",
        "any": f"MAX({col})",
    }[func]


def _operand_sql(operand, d: Dialect) -> str:
    if isinstance(operand, Const):
        return d.literal(operand.value, operand.ty)
    return d.quote_ident(operand)


def _binop_sql(node: BinApp, d: Dialect) -> str:
    a = _operand_sql(node.lhs, d)
    b = _operand_sql(node.rhs, d)
    simple = {
        "add": f"({a} + {b})",
        "sub": f"({a} - {b})",
        "mul": f"({a} * {b})",
        "eq": f"({a} = {b})",
        "ne": f"({a} <> {b})",
        "lt": f"({a} < {b})",
        "le": f"({a} <= {b})",
        "gt": f"({a} > {b})",
        "ge": f"({a} >= {b})",
        "and": f"({a} AND {b})",
        "or": f"({a} OR {b})",
        "min": f"MIN({a}, {b})",
        "max": f"MAX({a}, {b})",
        # UDFs registered by the adapter: Haskell div/mod floor toward
        # negative infinity and must error (not NULL) on division by zero.
        "div": f"FERRY_DIV({a}, {b})",
        "idiv": f"FERRY_IDIV({a}, {b})",
        "mod": f"FERRY_MOD({a}, {b})",
        "cat": f"({a} || {b})",
        # SQLite's native LIKE is case-insensitive for ASCII; the UDF
        # keeps the library's case-sensitive semantics on every backend.
        "like": f"FERRY_LIKE({a}, {b})",
    }
    return simple[node.op]
