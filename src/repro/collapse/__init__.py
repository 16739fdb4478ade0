"""Data-dependence collapsing: rules, expression groups and statistics."""

from .classify import ShapeTable, merge_verdict
from .rules import CollapseRules
from .stats import (
    CAT_0OP,
    CAT_3_1,
    CAT_4_1,
    CollapseStats,
    DISTANCE_BUCKETS,
    distance_bucket,
)

__all__ = [
    "ShapeTable", "merge_verdict",
    "CollapseRules",
    "CAT_0OP", "CAT_3_1", "CAT_4_1",
    "CollapseStats", "DISTANCE_BUCKETS", "distance_bucket",
]
