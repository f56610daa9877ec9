"""Cross-session shared prefix blocks (content-addressed, copy-on-write).

Real fleets serve huge populations that share system prompts, few-shot
templates and RAG preambles.  The AttentionStore of the paper keeps every
session's KV private; this module adds the metadata for deduplicating the
common prefix across sessions:

* a *content hash* deterministically identifies a prefix by its token
  identity and the model that produced the KV — two sessions whose
  conversations start with the same prefix under the same model map to the
  same hash;
* a :class:`SharedBlock` is the owner record for one deduped prefix: it
  holds the block's :class:`~repro.store.item.KVCacheItem` and the set of
  sessions reading it.  The item lives in the store's tiers like any
  other, keyed by a *pseudo session id* (negative; real sessions are
  non-negative) and marked by its ``shared_hash``, which keeps every
  byte-conservation and tier-exclusivity invariant intact;
* copy-on-write: a session that *diverges* from the shared prefix (context
  -window truncation rewrites its history) forks the overlapping tokens
  into its private item and drops its reference; readers keep the shared
  block untouched.

Shared blocks are exempt from per-session eviction and TTL expiry while
they have readers; without readers they are ordinary eviction victims.
The cluster invariant relaxes from "exactly one copy per session" to
"exactly one *owning* copy per content hash per store" — distinct replicas
may each hold a copy of the same content hash (that is the point of
content addressing: the bytes are reconstructible from the hash).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .item import KVCacheItem

__all__ = ["SharedBlock", "shared_prefix_hash"]


def shared_prefix_hash(prefix_id: int, n_tokens: int, model_name: str) -> str:
    """Deterministic content hash for a shared prefix.

    The simulator models token *counts*, not token values, so prefix
    identity is ``(prefix template id, prefix length, model)`` — the
    stand-in for hashing the actual prefix token ids plus the model spec.
    Sessions drawn with the same template under the same model collide by
    construction; anything else cannot.
    """
    if prefix_id < 0:
        raise ValueError(f"prefix_id must be >= 0, got {prefix_id}")
    if n_tokens <= 0:
        raise ValueError(f"n_tokens must be positive, got {n_tokens}")
    payload = f"{model_name}\x00{prefix_id}\x00{n_tokens}".encode()
    return hashlib.sha256(payload).hexdigest()


@dataclass(slots=True)
class SharedBlock:
    """Owner record for one deduplicated prefix.

    ``item`` holds the prefix KV (its ``shared_hash`` is the content hash
    and its token count the prefix length); ``readers`` are the sessions
    referencing it.  A block with readers is pinned against eviction and
    TTL expiry.
    """

    item: KVCacheItem
    readers: set[int] = field(default_factory=set)
