"""Try regions and catch clauses as the analysis keeps them, read the way
the tests read them.

A clause's handler is recorded only by the lowering of its method, so a
test that classifies a handler parses a one-file source, builds its model
and lowers it, as analyze_project does, and reads the record off the
clause. A partitioned region keeps its facts as handled and propagated;
possible and distinct_counts give the views that the tests compare.
"""

from __future__ import annotations

from functools import cache
from pathlib import Path
from typing import Optional

from exflow.flow import (
    Clause, PossibleException, TryRegion, attribute_sources, try_blocks,
)
from exflow.model import (
    PlatformModel, build_semantic_model, load_platform_model,
)
from exflow.syntax import parse_compilation_unit

JRE_MINI = Path(__file__).parent / "data" / "platform" / "jre_mini.json"


@cache
def _jre_mini() -> PlatformModel:
    return load_platform_model(JRE_MINI)


def lowered_clause(source: str,
                   platform: Optional[PlatformModel] = None) -> Clause:
    """The first catch clause, by position, of a one-file source once its
    method is lowered against platform (jre_mini by default): its handler
    holds the record of what the clause's body does."""
    unit = parse_compilation_unit(source, "A.java")
    model = build_semantic_model([unit], platform or _jre_mini())
    (_method, region), *_later = try_blocks(model)
    return region.catches[0]


def possible(region: TryRegion) -> frozenset[PossibleException]:
    """Every fact reaching the partitioned region's body, handled or not."""
    return region.propagated.union(region.handled)


def distinct_counts(region: TryRegion) -> dict[str, int]:
    """Per exception type of the partitioned region, how many distinct
    methods it traces back to."""
    return {tid: n for tid, (n, _) in attribute_sources(region).items()}
