"""The switch registry — ``describe()``, env spellings, docs drift, retirement.

Every engine switch resolves through one rule: explicit per-session value
beats the ``QueryOptions`` bundle, which beats the environment variable,
which beats the built-in default. :func:`repro.core.switches.describe`
reports each switch's resolved value *and the winning source*, and
:func:`switch_table_markdown` renders the precedence table embedded in
``docs/api.md`` — pinned here so the docs cannot drift from the registry.
Only switches that change *behaviour* are declared; the retired wall-clock
switches must stay gone from ``src/``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.options import QueryOptions
from repro.core.switches import (
    SWITCHES,
    describe,
    env_switch,
    switch_table_markdown,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
ALL_ENV = [s.env for s in SWITCHES]


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ALL_ENV:
        monkeypatch.delenv(name, raising=False)


def state(states, name):
    return next(s for s in states if s.name == name)


class TestDescribe:
    def test_covers_every_switch(self):
        states = describe()
        assert [s.name for s in states] == [s.name for s in SWITCHES]

    def test_defaults_with_clean_env(self):
        states = describe()
        assert all(s.source == "default" for s in states)
        assert state(states, "optimize").value is True
        assert state(states, "synopses").value is False
        assert state(states, "preempt").value is False

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPTIMIZE", "0")
        monkeypatch.setenv("REPRO_PREEMPT", "yes")
        states = describe()
        optimize = state(states, "optimize")
        assert (optimize.value, optimize.source) == (False, "env")
        preempt = state(states, "preempt")
        assert (preempt.value, preempt.source) == (True, "env")
        assert state(states, "synopses").source == "default"

    def test_options_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPTIMIZE", "0")
        monkeypatch.setenv("REPRO_SYNOPSES", "1")
        states = describe(options=QueryOptions(optimize=True, synopses=False))
        optimize = state(states, "optimize")
        assert (optimize.value, optimize.source) == (True, "options")
        synopses = state(states, "synopses")
        assert (synopses.value, synopses.source) == (False, "options")

    def test_explicit_beats_options(self):
        states = describe(
            options=QueryOptions(optimize=True, synopses=True),
            explicit={"optimize": False, "preempt": True},
        )
        optimize = state(states, "optimize")
        assert (optimize.value, optimize.source) == (False, "explicit")
        preempt = state(states, "preempt")
        assert (preempt.value, preempt.source) == (True, "explicit")
        assert state(states, "synopses").source == "options"


@pytest.mark.parametrize("value,expected", [
    (None, True),
    ("1", True),
    ("yes", True),
    ("0", False),
    ("false", False),
    ("OFF", False),
    (" no ", False),
])
def test_env_switch_spellings(monkeypatch, value, expected):
    if value is not None:
        monkeypatch.setenv("REPRO_OPTIMIZE", value)
    assert env_switch("REPRO_OPTIMIZE", default=True) is expected


class TestRetiredSwitches:
    """Kernels, buffer pool and partitions are the engine, not modes."""

    RETIRED = ("REPRO_" + "KERNELS", "REPRO_" + "BUFFERPOOL", "REPRO_" + "PARTITIONS")

    def test_only_behavioural_switches_are_declared(self):
        assert {s.env for s in SWITCHES} == {
            "REPRO_OPTIMIZE",
            "REPRO_SYNOPSES",
            "REPRO_PREEMPT",
        }

    def test_no_source_file_mentions_a_retired_variable(self):
        offenders = [
            f"{path.relative_to(ROOT)}: {name}"
            for path in sorted((ROOT / "src").rglob("*.py"))
            for name in self.RETIRED
            if name in path.read_text()
        ]
        assert offenders == []


class TestDocsTable:
    MARKER_BEGIN = "<!-- switches:begin -->"
    MARKER_END = "<!-- switches:end -->"

    def test_api_docs_table_matches_registry(self):
        """docs/api.md embeds exactly what switch_table_markdown renders."""
        api_md = (ROOT / "docs" / "api.md").read_text()
        assert self.MARKER_BEGIN in api_md and self.MARKER_END in api_md
        embedded = api_md.split(self.MARKER_BEGIN, 1)[1].split(
            self.MARKER_END, 1
        )[0].strip()
        assert embedded == switch_table_markdown().strip()

    def test_table_has_one_row_per_switch(self):
        table = switch_table_markdown()
        rows = [line for line in table.splitlines() if line.startswith("| ")]
        assert len(rows) == len(SWITCHES) + 1  # header + switches
