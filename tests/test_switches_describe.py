"""The switch inventory — ``describe()`` and the retired environment layer.

The two behaviour switches are plain boolean arguments; no Python file under
``src/``, ``tests/`` or ``examples/`` reads the process environment. :func:`repro.core.switches.describe`
reports each switch's value *and where it came from*: an explicit keyword
beats the ``QueryOptions`` bundle, which beats the signature default.
"""

from __future__ import annotations

import pathlib
import re

from repro.core.options import QueryOptions
from repro.core.switches import SWITCHES, describe

ROOT = pathlib.Path(__file__).resolve().parent.parent


def state(states, name):
    return next(s for s in states if s.name == name)


class TestDescribe:
    def test_covers_every_switch(self):
        states = describe()
        assert [s.name for s in states] == [s.name for s in SWITCHES]

    def test_defaults_with_clean_env(self):
        states = describe()
        assert all(s.source == "default" for s in states)
        assert state(states, "synopses").value is False
        assert state(states, "preempt").value is False

    def test_options_beat_default(self):
        states = describe(options=QueryOptions(synopses=True))
        synopses = state(states, "synopses")
        assert (synopses.value, synopses.source) == (True, "options")
        assert state(states, "preempt").source == "default"

    def test_explicit_beats_options(self):
        states = describe(
            options=QueryOptions(synopses=True),
            explicit={"synopses": False, "preempt": True},
        )
        synopses = state(states, "synopses")
        assert (synopses.value, synopses.source) == (False, "explicit")
        preempt = state(states, "preempt")
        assert (preempt.value, preempt.source) == (True, "explicit")


class TestRetiredSwitches:
    """No environment variable selects a behaviour or a code path: the
    wall-clock ones (kernels, buffer pool, partitions) went in PR 14 / 18,
    ``REPRO_OPTIMIZE`` / ``REPRO_SYNOPSES`` / ``REPRO_PREEMPT`` in PR 21."""

    FORBIDDEN = re.compile(r"REPRO_|os\.environ|getenv")

    def test_only_behavioural_switches_are_declared(self):
        assert [(s.name, s.default) for s in SWITCHES] == [
            ("synopses", False),
            ("preempt", False),
        ]

    def test_no_source_file_mentions_a_retired_variable(self):
        """Outside ``bench/`` (whose harness refuses to start with a
        ``REPRO_*`` variable set) no Python file reads the environment."""
        paths = [
            path
            for top in ("src", "tests", "examples")
            for path in sorted((ROOT / top).rglob("*.py"))
            if path != pathlib.Path(__file__).resolve()
        ]
        offenders = [
            f"{path.relative_to(ROOT)}: {found.group()}"
            for path in paths
            if (found := self.FORBIDDEN.search(path.read_text()))
        ]
        assert len(paths) > 100 and offenders == []
