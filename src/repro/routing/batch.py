"""Batch candidate lookup tables for position-pure routing relations.

Every built-in relation (DOR, TFAR and friends) exposes a
:meth:`~repro.routing.base.RoutingRelation.cache_key` making its candidate
set a pure function of message position; the engine memoizes the candidate
*list* per key.  The vectorized engine additionally needs, per key:

* the candidate VC objects (for the serve loop),
* their global indices as a ready-made tuple (the wait-key registration
  and the incremental tracker's dashed arcs consume exactly this tuple, so
  neither rebuilds it per blocked attempt), and
* their link dimensions (the straight-through selection collapse).

:class:`CandidateTable` builds those entries lazily through the same
relation calls the scalar path makes — contents are identical by
construction — and can export the whole table as padded numpy index
matrices for offline analysis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.channels import ChannelPool
    from repro.network.message import Message
    from repro.network.topology import Topology
    from repro.routing.base import RoutingRelation

__all__ = ["CandidateTable"]


class CandidateTable:
    """Lazily-built ``cache_key -> (candidates, indices, dims)`` table."""

    def __init__(
        self,
        routing: "RoutingRelation",
        topology: "Topology",
        pool: "ChannelPool",
    ) -> None:
        self.routing = routing
        self.topology = topology
        self.pool = pool
        #: per-VC link dimension, plain list for scalar hot-path reads
        self.vc_dim: list[int] = [vc.link.dim for vc in pool.vcs]
        self._table: dict = {}

    def __len__(self) -> int:
        return len(self._table)

    def lookup(self, message: "Message", node: int) -> Optional[tuple]:
        """``(candidates, index_tuple)`` for the message's position.

        Returns None when the relation declines memoization (``cache_key``
        None) — the caller falls back to a direct relation call, exactly
        like the scalar engine's ``route_candidates``.
        """
        key = self.routing.cache_key(message, node)
        if key is None:
            return None
        entry = self._table.get(key)
        if entry is None:
            cands = self.routing.candidates(
                message, node, self.topology, self.pool
            )
            entry = (cands, tuple(vc.index for vc in cands))
            self._table[key] = entry
        return entry

    def as_index_matrix(self) -> tuple:
        """The built table as ``(keys, padded numpy index matrix)``.

        Row *i* lists the candidate VC indices of ``keys[i]``, right-padded
        with -1.  Offline analysis / observability export; the serve loop
        never touches it, so numpy is imported here rather than with the
        engine.
        """
        import numpy as np

        keys = list(self._table)
        width = max(
            (len(self._table[k][1]) for k in keys), default=0
        )
        mat = np.full((len(keys), width), -1, dtype=np.int32)
        for i, k in enumerate(keys):
            idxs = self._table[k][1]
            mat[i, : len(idxs)] = idxs
        return keys, mat
