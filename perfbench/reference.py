"""Answers computed apart from the program, for checking its outputs.

Everything here reads the generated CSV files with the standard ``csv``
module and computes with plain numpy and dicts; nothing is imported
from ``repro``.  It provides:

* the paper questions' SQL as declarative join specs (aliases, equi-join
  pairs, constant filters, group column, aggregate), evaluated by one
  small hash-join routine;
* per-group provenance row counts and aggregate values (check (a));
* a reference join of a join graph over the question's provenance rows
  and Definition 7 coverage of a pattern on it (check (b));
* the properties every returned explanation must have (check (c)).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PT = "__pt"  # binding name of the provenance row in join-graph joins


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------


@dataclass
class Table:
    """One CSV table: numeric columns as float64 (NaN = NULL), text
    columns as object arrays (None = NULL)."""

    name: str
    columns: dict[str, np.ndarray]
    rows: int


def _is_null(cell: str) -> bool:
    return cell == "" or cell.upper() == "NULL"


def load_tables(directory: Path) -> dict[str, Table]:
    """Every table listed in the directory's ``schema.json``."""
    meta = json.loads((directory / "schema.json").read_text())
    tables: dict[str, Table] = {}
    for name, info in meta["tables"].items():
        with open(directory / f"{name}.csv", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            raw = list(zip(*reader)) or [()] * len(header)
        types = {c["name"]: c["type"] for c in info["columns"]}
        columns: dict[str, np.ndarray] = {}
        for col, cells in zip(header, raw):
            cells = [c.strip() for c in cells]
            if types[col] in ("int", "float"):
                columns[col] = np.array(
                    [math.nan if _is_null(c) else float(c) for c in cells],
                    dtype=np.float64,
                )
            else:
                arr = np.empty(len(cells), dtype=object)
                arr[:] = [None if _is_null(c) else c for c in cells]
                columns[col] = arr
        tables[name] = Table(name, columns, len(raw[0]) if raw else 0)
    return tables


def _null(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


# ---------------------------------------------------------------------------
# One hash join for query specs and join graphs alike
# ---------------------------------------------------------------------------


@dataclass
class Bindings:
    """Rows of a conjunctive join: per binding name, an index array.

    A table binding's array indexes rows of that table; the provenance
    binding :data:`PT` indexes rows of a :class:`ReferencePT`.
    """

    index: dict[str, np.ndarray]
    rows: int


def hash_join(
    bindings: Bindings,
    left_values: list[np.ndarray],
    name: str,
    right_values: list[np.ndarray],
    right_rows: np.ndarray,
) -> Bindings:
    """Join new binding ``name`` (candidate ``right_rows`` of a table)
    on ``left_values[i] == right_values[i]`` for every i; NULLs never
    match.  ``left_values`` are per binding row, ``right_values`` per
    table row."""
    table: dict = {}
    for row in right_rows.tolist():
        key = tuple(v[row] for v in right_values)
        if any(_null(k) for k in key):
            continue
        table.setdefault(key, []).append(row)
    left_idx: list[int] = []
    right_idx: list[int] = []
    for i, key in enumerate(zip(*left_values)):
        hits = table.get(key)
        if hits is None or any(_null(k) for k in key):
            continue
        left_idx.extend([i] * len(hits))
        right_idx.extend(hits)
    left = np.array(left_idx, dtype=np.int64)
    index = {k: v[left] for k, v in bindings.index.items()}
    index[name] = np.array(right_idx, dtype=np.int64)
    return Bindings(index, len(left_idx))


def equal_mask(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.array(
        [not _null(x) and not _null(y) and x == y for x, y in zip(a, b)],
        dtype=bool,
    )


def select(bindings: Bindings, mask: np.ndarray) -> Bindings:
    return Bindings(
        {k: v[mask] for k, v in bindings.index.items()}, int(mask.sum())
    )


# ---------------------------------------------------------------------------
# The paper questions' queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuerySpec:
    """A single-block aggregate query, written out by hand.

    ``order`` is the join order (first alias is scanned, each later one
    joins every ``joins`` pair linking it to bound aliases).
    """

    aliases: dict[str, str]
    order: tuple[str, ...]
    joins: tuple[tuple[str, str], ...]
    filters: tuple[tuple[str, object], ...]
    group: str
    aggregate: tuple[str, str | None]  # ("avg", "pgs.points") / ("count", None)


def _player_points(player: str) -> QuerySpec:
    return QuerySpec(
        aliases={"p": "player", "pgs": "player_game_stats", "g": "game",
                 "s": "season"},
        order=("p", "pgs", "g", "s"),
        joins=(("p.player_id", "pgs.player_id"),
               ("g.game_date", "pgs.game_date"),
               ("g.home_id", "pgs.home_id"),
               ("s.season_id", "g.season_id")),
        filters=(("p.player_name", player),),
        group="s.season_name",
        aggregate=("avg", "pgs.points"),
    )


# Keyed by the workload names of ``repro.datasets.nba_queries`` (plus the
# user-study question, which reuses Qnba4's SQL).
QUERY_SPECS: dict[str, QuerySpec] = {
    "Qnba1": _player_points("Draymond Green"),
    "Qnba2": QuerySpec(
        aliases={"tgs": "team_game_stats", "g": "game", "t": "team",
                 "s": "season"},
        order=("t", "tgs", "g", "s"),
        joins=(("s.season_id", "g.season_id"),
               ("tgs.game_date", "g.game_date"),
               ("tgs.home_id", "g.home_id"),
               ("tgs.team_id", "t.team_id")),
        filters=(("t.team", "GSW"),),
        group="s.season_name",
        aggregate=("avg", "tgs.assists"),
    ),
    "Qnba3": _player_points("LeBron James"),
    "Qnba4": QuerySpec(
        aliases={"t": "team", "g": "game", "s": "season"},
        order=("t", "g", "s"),
        joins=(("t.team_id", "g.winner_id"), ("g.season_id", "s.season_id")),
        filters=(("t.team", "GSW"),),
        group="s.season_name",
        aggregate=("count", None),
    ),
    "Qnba5": _player_points("Jimmy Butler"),
}
QUERY_SPECS["Q1prime"] = QUERY_SPECS["Qnba4"]


def _split(qualified: str) -> tuple[str, str]:
    alias, col = qualified.split(".", 1)
    return alias, col


class ReferenceDB:
    """The CSV tables plus reference evaluation of queries over them."""

    def __init__(self, directory: Path):
        self.tables = load_tables(directory)
        self._pt_cache: dict[str, "ReferencePT"] = {}

    def column(self, table: str, col: str) -> np.ndarray:
        return self.tables[table].columns[col]

    def provenance(self, name: str) -> "ReferencePT":
        """The working table of query ``name`` with its group values."""
        cached = self._pt_cache.get(name)
        if cached is not None:
            return cached
        spec = QUERY_SPECS[name]
        bindings: Bindings | None = None
        bound: list[str] = []
        applied = 0
        for alias in spec.order:
            table = self.tables[spec.aliases[alias]]
            mask = np.ones(table.rows, dtype=bool)
            for qualified, value in spec.filters:
                f_alias, col = _split(qualified)
                if f_alias == alias:
                    mask &= np.array(
                        [v == value for v in table.columns[col]], dtype=bool
                    )
            rows = np.flatnonzero(mask)
            if bindings is None:
                bindings = Bindings({alias: rows}, len(rows))
                bound.append(alias)
                continue
            left_values, right_values = [], []
            for a, b in spec.joins:
                (a_alias, a_col), (b_alias, b_col) = _split(a), _split(b)
                if b_alias == alias and a_alias in bound:
                    left_values.append(self._values(spec, bindings, a))
                    right_values.append(table.columns[b_col])
                elif a_alias == alias and b_alias in bound:
                    left_values.append(self._values(spec, bindings, b))
                    right_values.append(table.columns[a_col])
            applied += len(left_values)
            bindings = hash_join(
                bindings, left_values, alias, right_values, rows
            )
            bound.append(alias)
        # Every pair must link an alias to one bound before it: the specs
        # close no cycle, so no pair is left for a post-filter.
        assert bindings is not None and applied == len(spec.joins)
        groups = self._values(spec, bindings, spec.group)
        pt = ReferencePT(spec, bindings, groups)
        self._pt_cache[name] = pt
        return pt

    def _values(
        self, spec: QuerySpec, bindings: Bindings, qualified: str
    ) -> np.ndarray:
        alias, col = _split(qualified)
        return self.column(spec.aliases[alias], col)[bindings.index[alias]]

    # -- check (a) ------------------------------------------------------
    def group_summary(self, name: str) -> dict[str, tuple[int, float]]:
        """Group value → (provenance row count, aggregate value)."""
        pt = self.provenance(name)
        func, target = pt.spec.aggregate
        values = (
            self._values(pt.spec, pt.bindings, target)
            if target is not None
            else None
        )
        out: dict[str, tuple[int, float]] = {}
        for group in sorted(set(pt.groups.tolist())):
            rows = pt.groups == group
            count = int(rows.sum())
            if func == "count":
                agg = float(count)
            else:
                picked = values[rows]
                agg = float(np.mean(picked[~np.isnan(picked)]))
            out[group] = (count, agg)
        return out

    # -- check (b) ------------------------------------------------------
    def coverage(
        self,
        name: str,
        t1: str,
        t2: str,
        join_graph,
        pattern: list[dict],
    ) -> tuple[int, int, int, int]:
        """(c1, a1, c2, a2) of ``pattern`` on ``join_graph`` by
        Definition 7: a provenance row of t_i is covered when at least
        one row of the join graph extending it satisfies every
        predicate.  ``join_graph`` only supplies the graph's shape
        (node labels, edges with their attribute pairs and PT alias)."""
        pt = self.provenance(name)
        side1 = np.flatnonzero(pt.groups == t1)
        side2 = np.flatnonzero(pt.groups == t2)
        start = np.concatenate([side1, side2])
        spec = pt.spec
        bindings = Bindings({PT: start}, len(start))
        aliases = node_aliases(join_graph, spec.aliases)
        labels = {node.nid: node.label for node in join_graph.nodes}

        def values(nid: int, attr: str, pt_alias, bound: Bindings):
            if nid == 0:
                alias = _pt_alias(spec, self.tables, attr, pt_alias)
                rows = pt.bindings.index[alias][bound.index[PT]]
                return self.column(spec.aliases[alias], attr)[rows]
            return self.column(labels[nid], attr)[bound.index[aliases[nid]]]

        bound_nodes = {0}
        remaining = list(join_graph.edges)
        while True:
            frontier = sorted(
                (
                    {e.v for e in remaining if e.u in bound_nodes}
                    | {e.u for e in remaining if e.v in bound_nodes}
                )
                - bound_nodes
            )
            if not frontier:
                break
            nid = frontier[0]
            edges = [
                e for e in remaining
                if (e.u == nid and e.v in bound_nodes)
                or (e.v == nid and e.u in bound_nodes)
            ]
            left_values, right_values = [], []
            table = self.tables[labels[nid]]
            for e in edges:
                for u_attr, v_attr in e.condition.pairs:
                    if e.v == nid:
                        left_values.append(values(e.u, u_attr, e.pt_alias, bindings))
                        right_values.append(table.columns[v_attr])
                    else:
                        left_values.append(values(e.v, v_attr, e.pt_alias, bindings))
                        right_values.append(table.columns[u_attr])
            bindings = hash_join(
                bindings, left_values, aliases[nid], right_values,
                np.arange(table.rows),
            )
            bound_nodes.add(nid)
            remaining = [e for e in remaining if e not in edges]
        for e in remaining:  # cycle-closing edges filter
            mask = np.ones(bindings.rows, dtype=bool)
            for u_attr, v_attr in e.condition.pairs:
                mask &= equal_mask(
                    values(e.u, u_attr, e.pt_alias, bindings),
                    values(e.v, v_attr, e.pt_alias, bindings),
                )
            bindings = select(bindings, mask)

        node_of_alias = {a: nid for nid, a in aliases.items()}
        match = np.ones(bindings.rows, dtype=bool)
        for predicate in pattern:
            prefix, attr = _split(predicate["attribute"])
            if prefix in spec.aliases:
                rows = pt.bindings.index[prefix][bindings.index[PT]]
                column = self.column(spec.aliases[prefix], attr)[rows]
            else:
                nid = node_of_alias[prefix]
                column = self.column(labels[nid], attr)[
                    bindings.index[prefix]
                ]
            match &= predicate_mask(column, predicate["op"], predicate["value"])
        covered = set(bindings.index[PT][match].tolist())
        c1 = sum(1 for r in side1.tolist() if r in covered)
        c2 = sum(1 for r in side2.tolist() if r in covered)
        return c1, len(side1), c2, len(side2)


@dataclass
class ReferencePT:
    spec: QuerySpec
    bindings: Bindings
    groups: np.ndarray = field(repr=False)


def _pt_alias(spec: QuerySpec, tables, attr: str, pt_alias) -> str:
    """The query alias realizing a PT-side join attribute."""
    if pt_alias is not None and attr in tables[spec.aliases[pt_alias]].columns:
        return pt_alias
    hits = [a for a, t in spec.aliases.items() if attr in tables[t].columns]
    if len(hits) != 1:
        raise ValueError(f"ambiguous PT attribute {attr!r}: {hits}")
    return hits[0]


def node_aliases(join_graph, query_aliases: dict[str, str]) -> dict[int, str]:
    """Context node id → the alias APT attributes are qualified with:
    the relation name, then ``name2``, ``name3`` ... for repeats, never
    one of the query's own aliases."""
    taken = set(query_aliases)
    seen: dict[str, int] = {}
    out: dict[int, str] = {}
    for node in join_graph.nodes:
        if node.nid == 0:
            continue
        seen[node.label] = seen.get(node.label, 0) + 1
        n = seen[node.label]
        alias = node.label if n == 1 else f"{node.label}{n}"
        while alias in taken:
            n += 1
            seen[node.label] = n
            alias = f"{node.label}{n}"
        taken.add(alias)
        out[node.nid] = alias
    return out


def predicate_mask(column: np.ndarray, op: str, value) -> np.ndarray:
    """Rows satisfying ``column op value``; NULL never satisfies."""
    if column.dtype == object:
        if op != "=":
            raise ValueError(f"operator {op} on a text attribute")
        return np.array([v is not None and v == value for v in column], dtype=bool)
    with np.errstate(invalid="ignore"):
        if op == "=":
            mask = column == float(value)
        elif op == "<=":
            mask = column <= float(value)
        elif op == ">=":
            mask = column >= float(value)
        else:
            raise ValueError(f"unknown operator {op!r}")
    return mask & ~np.isnan(column)


def f_score(covered: int, other: int, total: int) -> float:
    """Definition 7 F-score with TP = covered, FP = other, FN = total - TP."""
    precision = covered / (covered + other) if covered + other else 0.0
    recall = covered / total if total else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# Check (c): properties of every returned explanation
# ---------------------------------------------------------------------------


def property_errors(payload: dict) -> list[str]:
    """Violations of 0 <= c_i <= a_i, 0 <= F <= 1 and F-ranked order."""
    errors: list[str] = []
    explanations = payload.get("explanations", [])
    if not explanations:
        errors.append("no explanation returned")
    for rank, e in enumerate(explanations):
        s = e["support"]
        for c, a in (("covered1", "total1"), ("covered2", "total2")):
            if not 0 <= s[c] <= s[a]:
                errors.append(f"#{rank}: {c}={s[c]} outside [0, {a}={s[a]}]")
        if not 0.0 <= e["f_score"] <= 1.0:
            errors.append(f"#{rank}: F={e['f_score']} outside [0, 1]")
        if e["f_score"] > explanations[0]["f_score"]:
            errors.append(f"#{rank}: F={e['f_score']} above the first")
    return errors


def count_errors(
    summary: dict[str, tuple[int, float]],
    executed: dict[str, float],
    payload: dict,
    t1: str,
    t2: str,
) -> list[str]:
    """Check (a): every explanation's a1/a2 equal the reference
    provenance row counts, and the executor's aggregate values for t1
    and t2 equal the reference aggregates."""
    errors = []
    want = (summary[t1][0], summary[t2][0])
    for e in payload["explanations"]:
        got = (e["support"]["total1"], e["support"]["total2"])
        if got != want:
            errors.append(f"a1/a2 {got} != reference {want}")
            break
    for t in (t1, t2):
        if not close(float(executed[t]), summary[t][1]):
            errors.append(
                f"aggregate for {t}: executor {executed[t]} != "
                f"reference {summary[t][1]}"
            )
    return errors


# Verdict of :func:`payload_difference` for payloads that differ only in
# the order of explanations with equal F-scores (see CHANGES.md FOUND).
TIE_ORDER = "explanations with equal F-scores in another order"


def payload_difference(served: str, direct: str) -> str | None:
    """Check (d): ``None`` when the payloads are byte-identical,
    :data:`TIE_ORDER` when they differ only in the order of
    explanations with equal F-scores (in the last such group, which the
    top-k cut may split, only in which of them were kept), otherwise a
    description of the difference."""
    if served == direct:
        return None
    a, b = json.loads(served), json.loads(direct)
    ea, eb = a.pop("explanations"), b.pop("explanations")
    if a != b or [e["f_score"] for e in ea] != [e["f_score"] for e in eb]:
        return "served payload differs from an in-process session"
    groups: dict[float, tuple[list, list]] = {}
    for x, y in zip(ea, eb):
        pair = groups.setdefault(x["f_score"], ([], []))
        pair[0].append(json.dumps(x, sort_keys=True))
        pair[1].append(json.dumps(y, sort_keys=True))
    last = ea[-1]["f_score"] if ea else None
    for score, (xs, ys) in groups.items():
        if score != last and sorted(xs) != sorted(ys):
            return "served payload differs from an in-process session"
    return TIE_ORDER


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
