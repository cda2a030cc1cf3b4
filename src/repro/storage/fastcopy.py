"""Fast deep copy for plain simulation data, and the rule for when to copy.

**Ownership rule.**  A value is copied only where it crosses the *sandbox
boundary* — the line between a function's execution and storage:

* once **in**, where a function's value enters storage: ``KVStore.put``
  and ``NearUserCache.apply_local_write``;
* once **out**, where a function reads: ``SnapshotReader.read``, a
  speculative read of the function's own buffered write
  (``SpeculativeEnv.db_get``) and ``PrimaryEnv.db_get``;
* once for the arguments f^rw runs on.

Inside storage nothing is ever edited in place — a write *replaces* an
item, a fresher version *replaces* a cache entry (paper §3.1–3.2) — so
every holder shares the one object: store items, cache entries, the pins
of a snapshot, the fresh items of an LVI response, mesh updates and cut
replies.  The same holds one level up: a deployment's warm snapshot of
the stores is taken once and read by every PoP cache under its own
overlay, and each cache write path (``install``, ``apply_local_write``,
the mesh's gossiped apply, ``invalidate``, ``wipe``) replaces or hides an
entry in that overlay rather than editing anything shared.  Code on the storage side that needs a
value it may mutate calls ``Item.copy_value()``.

**The copier.**  The stdlib ``copy.deepcopy`` pays for generality this data
never uses — memo bookkeeping for aliasing/cycles, reduce-protocol dispatch
— and showed up as one of the top entries in the kernel profile.
Application values in this reproduction are JSON-shaped: dicts, lists,
tuples, and atomic scalars.  :func:`fast_deepcopy` handles exactly those
shapes with direct recursion (no memo — acyclic by construction, and
duplicating an internal alias instead of sharing it is indistinguishable
to value-semantics readers) and falls back to ``copy.deepcopy`` for
anything else, so exotic values keep full deepcopy semantics.
"""

from __future__ import annotations

import copy
from typing import Any

__all__ = ["fast_deepcopy"]


def fast_deepcopy(x: Any) -> Any:
    """Deep-copy JSON-shaped data quickly; defer odd types to deepcopy."""
    cls = x.__class__
    if cls is dict:
        return {k: fast_deepcopy(v) for k, v in x.items()}
    if cls is list:
        return [fast_deepcopy(v) for v in x]
    if cls is str or cls is int or cls is float or cls is bool or x is None:
        return x
    if cls is tuple:
        return tuple(fast_deepcopy(v) for v in x)
    return copy.deepcopy(x)
