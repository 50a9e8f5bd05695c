"""Kernel stress: the 50-session interleave, engine vs row-at-a-time oracle.

Re-runs the session-isolation stress workload (see
``test_session_stress.py``) on the engine and on the row-at-a-time stage
oracle (``tests/rowwise_oracle.py``) and demands bit-identical run
signatures: interleaving 50 engine sessions must match running the same 50
sessions serially on the oracle. This is the end-to-end acceptance check
that the kernel layer changes wall-clock behaviour only — every estimate,
stage fraction, simulated duration, and block count is the reference's even
with 50 plans' worth of kernel state (consolidated runs, column caches)
alive at once.
"""

from __future__ import annotations

import random

import pytest

from tests.rowwise_oracle import rowwise_stages
from tests.test_session_stress import SESSIONS, make_db, signature, spec


def open_sessions(rowwise) -> dict:
    """All 50 sessions on one database; ``rowwise(i)`` picks the oracle."""
    db = make_db()
    sessions = {}
    for i in range(SESSIONS):
        with rowwise_stages(rowwise(i)):
            sessions[i] = db.open_session(**spec(i))
    return sessions


def run_serial(rowwise: bool) -> dict[int, tuple]:
    db = make_db()
    signatures = {}
    for i in range(SESSIONS):
        with rowwise_stages(rowwise):
            session = db.open_session(**spec(i))
        signatures[i] = signature(session.run())
    return signatures


@pytest.fixture(scope="module")
def serial_rowwise():
    return run_serial(rowwise=True)


def test_vectorized_serial_matches_rowwise_serial(serial_rowwise):
    assert run_serial(rowwise=False) == serial_rowwise


def test_vectorized_interleaved_matches_rowwise_serial(serial_rowwise):
    sessions = open_sessions(lambda i: False)
    order = list(range(SESSIONS))
    random.Random(13).shuffle(order)
    interleaved = {i: signature(sessions[i].run()) for i in order}
    assert interleaved == serial_rowwise


def test_mixed_paths_interleaved_match_too(serial_rowwise):
    """Alternating engine and oracle sessions on one database."""
    sessions = open_sessions(lambda i: i % 2 == 1)
    order = list(range(SESSIONS))
    random.Random(17).shuffle(order)
    mixed = {i: signature(sessions[i].run()) for i in order}
    assert mixed == serial_rowwise
