"""Public DBMS facade and per-query sessions (system S15)."""

from repro.core.database import Database
from repro.core.options import DEFAULT_OPTIONS, QueryOptions
from repro.core.result import QueryResult
from repro.core.session import QuerySession

__all__ = [
    "DEFAULT_OPTIONS",
    "Database",
    "QueryOptions",
    "QueryResult",
    "QuerySession",
]
