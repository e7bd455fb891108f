"""An execution-match checker on the stdlib ``sqlite3`` engine.

It loads the same rows the program's own executor reads into an in-memory
SQLite database and runs the rendered SQL there, so a top-1 EX verdict
can be recomputed without the program's executor.  Row comparison
follows the EX metric's definition: strings compare case-insensitively,
integral floats equal their integers, other floats compare to six
places; rows compare in order when the gold query has ORDER BY and as a
bag otherwise.
"""

from __future__ import annotations

import sqlite3
from collections import Counter


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def load(db) -> sqlite3.Connection:
    """An in-memory SQLite copy of a program ``Database``."""
    conn = sqlite3.connect(":memory:")
    for table in db.schema.tables:
        columns = [column.name for column in table.columns]
        conn.execute(
            f"CREATE TABLE {_quote(table.name)} "
            f"({', '.join(_quote(c) for c in columns)})"
        )
        conn.executemany(
            f"INSERT INTO {_quote(table.name)} "
            f"VALUES ({', '.join('?' * len(columns))})",
            [
                tuple(row[c.lower()] for c in columns)
                for row in db.table_rows(table.name)
            ],
        )
    return conn


def normalise(row: tuple) -> tuple:
    out = []
    for value in row:
        if isinstance(value, str):
            out.append(value.lower())
        elif isinstance(value, float) and value.is_integer():
            out.append(int(value))
        elif isinstance(value, float):
            out.append(round(value, 6))
        else:
            out.append(value)
    return tuple(out)


def rows_match(predicted: list, gold: list, ordered: bool) -> bool:
    predicted = [normalise(row) for row in predicted]
    gold = [normalise(row) for row in gold]
    if ordered:
        return predicted == gold
    return Counter(predicted) == Counter(gold)


def has_order(query) -> bool:
    """Whether a gold query's result order is significant."""
    if hasattr(query, "left"):  # a set operation
        return has_order(query.left) or has_order(query.right)
    return bool(query.order_by)


class SqliteChecker:
    """Recomputes EX verdicts on SQLite copies of the databases."""

    def __init__(self) -> None:
        self._connections: dict[str, sqlite3.Connection] = {}

    def execution_match(self, predicted_sql: str, gold, gold_sql: str, db):
        conn = self._connections.get(db.schema.db_id)
        if conn is None:
            conn = self._connections[db.schema.db_id] = load(db)
        try:
            predicted = conn.execute(predicted_sql).fetchall()
            expected = conn.execute(gold_sql).fetchall()
        except sqlite3.Error:
            return False
        return rows_match(predicted, expected, has_order(gold))

    def close(self) -> None:
        for conn in self._connections.values():
            conn.close()
        self._connections.clear()
