"""Hot-index tiering: RecNMP's uniform rank cache at the leaf/rank boundary."""

from repro.tiering.cache import (
    POLICIES,
    POLICY_FIFO,
    POLICY_LRU,
    CacheStats,
    HotIndexCache,
    HotIndexTier,
    HotTierConfig,
)

__all__ = [
    "POLICIES",
    "POLICY_FIFO",
    "POLICY_LRU",
    "CacheStats",
    "HotIndexCache",
    "HotIndexTier",
    "HotTierConfig",
]
