"""Consistent-hash ring routing: elastic shard placement with minimal churn.

The static :class:`~repro.service.router.ShardRouter` maps a stream id to
``crc32(id) % n_shards`` — perfect for a fixed pool, but resizing the pool
remaps almost every key.  The :class:`RingRouter` places ``vnodes`` virtual
nodes per shard on a 32-bit hash ring and assigns each stream id to the
first virtual node at or after its own hash (wrapping around).  Because a
shard's virtual-node positions depend only on ``(salt, shard, replica)``:

* **determinism** — the same ``(n_shards, salt)`` pair always builds the
  same ring, in every process (CRC-32 over UTF-8, never Python's salted
  ``hash``), so a restored service routes exactly like the one that wrote
  the checkpoint;
* **minimal disruption** — growing ``n → n + 1`` only adds the new shard's
  virtual nodes, so the only keys that move are those captured by the new
  shard (≈ ``K/n`` of ``K`` keys in expectation, and *none* move between
  surviving shards); shrinking removes only the retired shards' nodes, so
  keys owned by survivors never move.  This is the property that makes live
  fleet resizing cheap: a 4 → 6 split migrates ~1/3 of the tenants and
  leaves the rest untouched.

Both routers expose the same surface (``n_shards``, ``salt``, ``shard_of``,
``partition``, ``pins``) so the service, the checkpoint manifest and the
parity harness treat them interchangeably; ``ServiceConfig.router`` selects
the kind and :func:`make_router` builds it.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Dict, Iterable, List, TypeVar

from ..core.exceptions import ConfigurationError
from .router import ShardRouter

KeyedT = TypeVar("KeyedT")

#: Router kinds ``ServiceConfig.router`` accepts.
ROUTER_KINDS = ("static", "ring")

#: Virtual nodes per shard; the ring for a 64-shard fleet stays a 4096-entry
#: sorted list — one bisect per routed point.  64 nodes do not keep the load
#: near uniform: 1,000 ``tenant-NNNN`` keys split 605/395 over 2 shards (the
#: static router: 500/500), and 8 ``tenant-NN`` keys land on 2 of 4 shards.
DEFAULT_VNODES = 64


class RingRouter:
    """Consistent-hash ring over ``n_shards`` shards with virtual nodes.

    Parameters
    ----------
    n_shards:
        Number of detector shards on the ring.
    salt:
        Mixed into every hash (virtual-node positions and key lookups);
        persisted in service checkpoints so restored services route
        identically.
    vnodes:
        Virtual nodes per shard; more nodes = smoother load spread at the
        cost of a larger ring.
    """

    kind = "ring"

    def __init__(self, n_shards: int, *, salt: int = 0,
                 vnodes: int = DEFAULT_VNODES) -> None:
        if n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be positive, got {n_shards}")
        if vnodes < 1:
            raise ConfigurationError(
                f"vnodes must be positive, got {vnodes}")
        self.n_shards = n_shards
        self.salt = int(salt)
        self.vnodes = int(vnodes)
        #: Explicit stream-id → shard overrides (live tenant migration);
        #: consulted before the ring, persisted in service checkpoints.
        self.pins: Dict[str, int] = {}
        points = []
        for shard in range(n_shards):
            for replica in range(self.vnodes):
                digest = zlib.crc32(
                    f"{self.salt}:vnode:{shard}:{replica}".encode("utf-8"))
                # The (digest, shard, replica) tuple makes equal-hash
                # collisions deterministic: lower shard ids win, and growth
                # only appends higher ids, so adding shards never reorders
                # the survivors' nodes — the minimal-disruption guarantee
                # holds even across hash ties.
                points.append((digest, shard, replica))
        points.sort()
        self._hashes = [digest for digest, _, _ in points]
        self._owners = [shard for _, shard, _ in points]

    def shard_of(self, stream_id: str) -> int:
        """The shard owning ``stream_id``: its pin, or the next ring node."""
        if self.pins:
            pinned = self.pins.get(stream_id)
            if pinned is not None:
                return pinned
        digest = zlib.crc32(f"{self.salt}:{stream_id}".encode("utf-8"))
        index = bisect.bisect_right(self._hashes, digest)
        if index == len(self._hashes):
            index = 0  # wrap past the top of the ring
        return self._owners[index]

    def partition(self, points: Iterable[KeyedT]) -> Dict[int, List[KeyedT]]:
        """Group stream-id-carrying points by owning shard, preserving order.

        Same contract as :meth:`ShardRouter.partition`: every shard key is
        present (possibly empty), and each per-shard list is exactly the
        sub-stream that shard's detector sees.
        """
        grouped: Dict[int, List[KeyedT]] = {i: [] for i in range(self.n_shards)}
        for point in points:
            grouped[self.shard_of(point.stream_id)].append(point)
        return grouped


def make_router(kind: str, n_shards: int, *, salt: int = 0):
    """Build the router ``ServiceConfig.router`` names.

    ``"static"`` is the historical CRC-32 mod (cheapest, fixed pool);
    ``"ring"`` is the consistent-hash ring (elastic fleets).
    """
    if kind == "static":
        return ShardRouter(n_shards, salt=salt)
    if kind == "ring":
        return RingRouter(n_shards, salt=salt)
    raise ConfigurationError(
        f"router must be one of {ROUTER_KINDS}, got {kind!r}")
