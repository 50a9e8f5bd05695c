"""The two behaviour switches, and where a run's values came from.

A switch selects between two *behaviours* of the engine or the server —
what a run computes, stores, or schedules. Each is a plain boolean argument
(``QueryOptions.synopses``, ``QueryServer(synopses=, preempt=)``) whose
default lives in that signature; nothing is read from the process
environment. How the host computes a stage (columnar kernels) is not a
switch, and neither is the logical optimizer: every session runs the
rewritten plan.

:data:`SWITCHES` names them and :func:`describe` reports, for an options
bundle and/or explicit keyword values, each switch's value and whether it
came from the explicit keywords, the bundle, or the default.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Switch:
    """Declaration of one behaviour switch (see :data:`SWITCHES`)."""

    name: str
    option: str
    """The ``QueryOptions`` field / ``QueryServer`` keyword that sets it."""

    default: bool


SWITCHES: tuple[Switch, ...] = (
    Switch(name="synopses", option="synopses", default=False),
    Switch(name="preempt", option="preempt", default=False),
)


@dataclass(frozen=True)
class SwitchState:
    """One switch's value and where that value came from."""

    name: str
    option: str
    value: bool
    source: str
    """``explicit`` > ``options`` > ``default`` — whichever won."""

    default: bool


def describe(options=None, explicit=None) -> tuple[SwitchState, ...]:
    """Report every switch's value and its source.

    ``options`` is an optional :class:`~repro.core.options.QueryOptions`;
    ``explicit`` an optional mapping from :attr:`Switch.option` to the
    keyword value passed next to (and overriding) the bundle.
    """
    explicit = explicit or {}
    states = []
    for switch in SWITCHES:
        if switch.option in explicit:
            value, source = explicit[switch.option], "explicit"
        elif hasattr(options, switch.option):
            value, source = getattr(options, switch.option), "options"
        else:
            value, source = switch.default, "default"
        states.append(
            SwitchState(switch.name, switch.option, value, source, switch.default)
        )
    return tuple(states)
