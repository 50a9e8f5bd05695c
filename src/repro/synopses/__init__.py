"""repro.synopses — cross-query synopsis catalog.

Queries over the same relations get cheaper the more the process runs:
completed sessions deposit per-subtree selectivity posteriors and
whole-query answer synopses into a :class:`SynopsisCatalog`; later sessions
warm-start Revise-Selectivities from the posteriors (fewer, bigger stages
per quota) and the serving layer backs degraded answers with recorded
estimates instead of flat prestored statistics. Relation mutations invalidate/age the affected entries.

Opt-in via ``QueryOptions(synopses=True)`` (on a server too:
``QueryServer(db, options=QueryOptions(synopses=True))``); off, the engine is bit-identical to one without this package.
"""

from repro.catalog.catalog import relation_fingerprint
from repro.synopses.binder import SynopsisBinder
from repro.synopses.catalog import (
    AnswerSynopsis,
    SelectivityPosterior,
    SynopsisCatalog,
    SynopsisCatalogInfo,
    aggregate_key,
)
from repro.synopses.events import (
    SynopsisHit,
    SynopsisInvalidated,
    SynopsisRefreshed,
)

__all__ = [
    "AnswerSynopsis",
    "SelectivityPosterior",
    "SynopsisBinder",
    "SynopsisCatalog",
    "SynopsisCatalogInfo",
    "SynopsisHit",
    "SynopsisInvalidated",
    "SynopsisRefreshed",
    "aggregate_key",
    "relation_fingerprint",
]
