"""Process-wide feature switches resolved from the environment.

A switch selects between two *behaviours* of the engine or the server —
what a run computes, stores, or schedules — and is declared exactly once,
in :data:`SWITCHES` (name, option field, environment variable, default).
How the host computes a stage (columnar kernels, the buffer pool) is not a
switch: those are the engine, pinned invisible to every charged cost and
estimate by differential tests.

All switches share one resolution rule, implemented here once: an explicit
per-session value beats the :class:`~repro.core.options.QueryOptions`
bundle, which beats the environment variable, which beats the built-in
default. The variable being unset means the default, and any of the falsey
spellings ``0`` / ``false`` / ``off`` / ``no`` (case-insensitive,
whitespace-tolerant) means *off*; anything else means *on*. Switches are
read at plan-construction time, never cached at import, so tests can flip
them per query with ``monkeypatch.setenv``.

The switch inventory is introspectable: :func:`describe` resolves each
declared switch (reporting the winning source), and
:func:`switch_table_markdown` renders the precedence table embedded in
``docs/api.md`` — the docs are regenerated from this module, so they
cannot drift (a test pins the embedded table to the generated one).

This module must stay import-light (standard library only): it is imported
from low-level packages such as :mod:`repro.planner` while
:mod:`repro.core` itself may still be mid-initialization.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

_FALSEY = ("0", "false", "off", "no")


def env_switch(name: str, default: bool = True) -> bool:
    """Resolve the boolean feature switch ``name`` from the environment.

    Unset → ``default``. Set to ``0``/``false``/``off``/``no`` (any case)
    → ``False``. Any other value → ``True``.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in _FALSEY


def resolve_switch(explicit: bool | None, name: str, default: bool = True) -> bool:
    """An explicit per-call setting beats the environment switch.

    The common pattern for optional engine features: ``None`` (the caller
    expressed no preference) falls back to :func:`env_switch`; an explicit
    ``True``/``False`` wins regardless of the environment.
    """
    if explicit is not None:
        return explicit
    return env_switch(name, default)


# ----------------------------------------------------------------------
# The introspectable switch inventory
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Switch:
    """Declaration of one engine switch (see :data:`SWITCHES`)."""

    name: str
    """Registry key, as reported by :func:`describe`."""

    title: str
    """Human-readable name used in the docs table."""

    option: str
    """The :class:`~repro.core.options.QueryOptions` field / session kwarg."""

    option_note: str
    """Extra docs-table note after the option name (may be empty)."""

    env: str
    """The environment variable."""

    default: bool
    """Built-in default when nothing else is set."""


SWITCHES: tuple[Switch, ...] = (
    Switch(
        name="optimize",
        title="logical optimizer",
        option="optimize",
        option_note="",
        env="REPRO_OPTIMIZE",
        default=True,
    ),
    Switch(
        name="synopses",
        title="synopsis catalog",
        option="synopses",
        option_note="",
        env="REPRO_SYNOPSES",
        default=False,
    ),
    Switch(
        name="preempt",
        title="EDF preemption",
        option="preempt",
        option_note=" (`QueryServer` kwarg)",
        env="REPRO_PREEMPT",
        default=False,
    ),
)


@dataclass(frozen=True)
class SwitchState:
    """One switch's resolved value and where that value came from."""

    name: str
    option: str
    env: str
    value: bool
    source: str
    """``explicit`` > ``options`` > ``env`` > ``default`` — whichever won."""

    default: bool


def describe(options=None, explicit=None) -> tuple[SwitchState, ...]:
    """Resolve every switch, reporting each value's winning source.

    ``options`` is an optional :class:`~repro.core.options.QueryOptions`
    (or anything duck-typed with the option fields); ``explicit`` is an
    optional mapping from a switch's option field name (each
    :attr:`Switch.option` in :data:`SWITCHES`) to the per-session kwarg
    value. Resolution is the engine's: explicit > options > env > default.
    """
    explicit = explicit or {}
    states: list[SwitchState] = []
    for switch in SWITCHES:
        from_options = getattr(options, switch.option, None)
        if explicit.get(switch.option) is not None:
            value, source = bool(explicit[switch.option]), "explicit"
        elif from_options is not None:
            value, source = bool(from_options), "options"
        elif os.environ.get(switch.env) is not None:
            value, source = env_switch(switch.env, switch.default), "env"
        else:
            value, source = switch.default, "default"
        states.append(
            SwitchState(
                name=switch.name,
                option=switch.option,
                env=switch.env,
                value=value,
                source=source,
                default=switch.default,
            )
        )
    return tuple(states)


def switch_table_markdown() -> str:
    """The docs/api.md precedence table, rendered from :data:`SWITCHES`.

    ``docs/api.md`` embeds this between ``<!-- switches:begin -->`` and
    ``<!-- switches:end -->`` markers; a test regenerates it and fails on
    drift, so the registry is the single source of truth.
    """
    lines = [
        "| switch | option / kwarg | env var | default |",
        "|---|---|---|---|",
    ]
    for switch in SWITCHES:
        lines.append(
            f"| {switch.title} | `{switch.option}=`{switch.option_note} "
            f"| `{switch.env}` | {'on' if switch.default else 'off'} |"
        )
    return "\n".join(lines)
