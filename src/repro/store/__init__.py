"""AttentionStore: hierarchical KV caching for multi-turn conversations."""

from .attention_store import (
    AttentionStore,
    LookupResult,
    LookupStatus,
    StoreStats,
    make_policy,
)
from .block import Allocation, BlockAllocator, OutOfBlocksError
from .item import KVCacheItem, Tier
from .policy import (
    EmptyQueueView,
    EvictionPolicy,
    FIFOPolicy,
    ListQueueView,
    LRUPolicy,
    QueueView,
    SchedulerAwarePolicy,
)
from .sharing import SharedBlock, shared_prefix_hash
from .tier import StorageTier

__all__ = [
    "Allocation",
    "AttentionStore",
    "BlockAllocator",
    "EmptyQueueView",
    "EvictionPolicy",
    "FIFOPolicy",
    "KVCacheItem",
    "LRUPolicy",
    "ListQueueView",
    "LookupResult",
    "LookupStatus",
    "OutOfBlocksError",
    "QueueView",
    "SchedulerAwarePolicy",
    "SharedBlock",
    "StorageTier",
    "StoreStats",
    "Tier",
    "make_policy",
    "shared_prefix_hash",
]
