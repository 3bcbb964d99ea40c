"""The three FERRY programs the benchmark runs, each paired with a
hand-written Python reference.

A reference computes the program's value straight from the catalog's
rows with plain loops, so it shares no code with the compiler, the
backends or the in-heap ``Interpreter``.  The benchmark compares every
op's result with it outside the timed region; ``test_programs.py``
checks each reference against the ``Interpreter`` at paper-sized inputs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from repro import Catalog, Connection, fmap, fsum, group_with, pyq, the, tup
from repro.bench import running_example_query
from repro.dph import dotp_query


@dataclass(frozen=True)
class Program:
    """A program under test: its front-end builder and its reference."""

    name: str
    #: Builds the program against a connection's catalog (frontend layer).
    build: Callable[[Connection], Any]
    #: The expected value, computed from the catalog without FERRY.
    reference: Callable[[Catalog], Any]
    #: Bundle size the result type dictates (the avalanche metric).
    queries: int


def running_example_reference(catalog: Catalog) -> list:
    """Section 2's program: per category (ascending), the distinct
    meanings of its facilities' features, in first-occurrence order of
    ``concatMap descr facs`` where ``descr`` walks ``meanings`` outer and
    ``features`` inner."""
    groups: dict[str, list[str]] = {}
    for cat, fac in catalog.rows("facilities"):
        groups.setdefault(cat, []).append(fac)
    features: dict[str, Counter] = {}
    for fac, feature in catalog.rows("features"):
        features.setdefault(fac, Counter())[feature] += 1
    meanings = catalog.rows("meanings")

    def descr(fac: str) -> list[str]:
        have = features.get(fac, Counter())
        return [meaning for feature, meaning in meanings
                for _ in range(have[feature])]

    out = []
    for cat in sorted(groups):
        seen: dict[str, None] = {}
        for fac in groups[cat]:
            for meaning in descr(fac):
                seen.setdefault(meaning)
        out.append((cat, list(seen)))
    return out


def nested_orders_report(db: Connection):
    """The three-level report of ``examples/nested_orders.py``: per
    region, per customer, the total of each of the customer's orders.
    Result type ``[(String, [(String, [Double])])]``, a 3-query bundle."""
    customers = db.table("customers")    # rows: (cid, name, region)
    orders = db.table("orders")          # rows: (cid, month, oid)
    lineitems = db.table("lineitems")    # rows: (line, oid, price)

    def order_totals(cid):
        customer_orders = pyq(
            "[oid for (cid2, month, oid) in orders if cid2 == cid]",
            orders=orders, cid=cid)
        return fmap(
            lambda oid: fsum(pyq(
                "[price for (line, oid2, price) in lineitems"
                " if oid2 == oid]", lineitems=lineitems, oid=oid)),
            customer_orders)

    return fmap(
        lambda g: tup(
            the(fmap(lambda c: c[2], g)),
            fmap(lambda c: tup(c[1], order_totals(c[0])), g)),
        group_with(lambda c: c[2], customers))


def nested_orders_reference(catalog: Catalog) -> list:
    """Regions ascending; customers and orders in table order; each
    order's line-item prices summed in table order."""
    totals: dict[int, float] = {}
    for _line, oid, price in catalog.rows("lineitems"):
        totals[oid] = totals.get(oid, 0.0) + price
    by_customer: dict[int, list[float]] = {}
    for cid, _month, oid in catalog.rows("orders"):
        by_customer.setdefault(cid, []).append(totals.get(oid, 0.0))
    regions: dict[str, list] = {}
    for cid, name, region in catalog.rows("customers"):
        regions.setdefault(region, []).append(
            (name, by_customer.get(cid, [])))
    return [(region, regions[region]) for region in sorted(regions)]


def dotp_reference(sv: list[tuple[int, float]], v: list[float]) -> float:
    """Figure 5's scalar loop: ``sum [x * v !! i | (i, x) <- sv]``."""
    total = 0.0
    for i, x in sv:
        total += x * v[i]
    return total


RUNNING_EXAMPLE = Program("running-example", running_example_query,
                          running_example_reference, 2)
NESTED_ORDERS = Program("nested-orders", nested_orders_report,
                        nested_orders_reference, 3)


def dotp(sv: list[tuple[int, float]], v: list[float]) -> Program:
    """Figure 6's ``dotp`` over literal vectors (it reads no table)."""
    return Program("dotp", lambda db: dotp_query(sv, v),
                   lambda catalog: dotp_reference(sv, v), 1)


def same(actual: Any, expected: Any) -> bool:
    """Structural equality; floats agree to 1e-9 relative, because the
    backends may add a group's values in another order than the
    reference does."""
    if isinstance(expected, float):
        return (isinstance(actual, (float, int))
                and math.isclose(actual, expected, rel_tol=1e-9,
                                 abs_tol=1e-9))
    if isinstance(expected, (list, tuple)):
        return (type(actual) is type(expected)
                and len(actual) == len(expected)
                and all(same(a, e) for a, e in zip(actual, expected)))
    return type(actual) is type(expected) and actual == expected
