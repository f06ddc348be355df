"""The vectorized structure-of-arrays engine core.

:class:`VectorizedEngine` replaces the per-message dict/object traversal
of the scalar engine's hot phases with work over index-mapped
structure-of-arrays state (:class:`~repro.network.soa.SoAState`),
precomputed batch candidate tables
(:class:`~repro.routing.batch.CandidateTable`) and an inline arbitration
stream that drives the C-backed ``Random.getrandbits`` directly.  It is
the default engine: ``config.engine_tier`` selects it for every
unit-latency 'torus'-family config with ``engine_vectorized`` on (the
default), dispatched inside ``NetworkSimulator.__new__``, so call sites
construct :class:`~repro.network.simulator.NetworkSimulator` as always.
It imports no numpy, and ``repro.network.simulator`` imports it at load
time, so forked campaign workers inherit it.

**Bit-identical by construction.**  Every RNG draw, service order,
tie-break, wake transition and detector interleaving matches the other
two engines exactly:

* ``_shuffle_inline`` replays CPython's ``Random.shuffle``
  (Fisher-Yates over ``_randbelow_with_getrandbits``, including the
  rejection loop and its word-consumption pattern) while hoisting the
  per-step ``bit_length`` behind a descending power-of-two boundary —
  the bound drops by one per step, so it crosses at most one boundary
  per iteration;
* the flattened serve loop preserves the scalar phase order: queue heads
  by node, then routable actives in ``active``-dict insertion order,
  then one shuffle of the whole request list;
* the inlined selection replays ``StraightThroughFirst`` /
  ``RandomSelection`` draw for draw (``rng.choice`` =
  ``seq[_randbelow(len(seq))]``, whose ``n == 1`` case still consumes
  words until a zero arrives);
* for a *routable* active message, ``needs_reception`` reduces to
  ``vcs[-1].dst == dest`` (the routable invariant rules out draining,
  recovering and done states and guarantees the header has arrived), and
  a queue head always takes the VC branch — so the per-message property
  cascade disappears from the loop;
* a queue head whose candidate VCs are all owned consumes **no** RNG and
  mutates nothing, so it is parked in the wake index (``stalled``) and
  skipped verbatim until an awaited VC frees — ``blocked_since`` and the
  waiting set stay untouched, since those belong to *active* messages
  and the legacy engine never sets them for queued heads;
* queue depths feed the traffic generator from maintained counters
  (``+1`` on append, ``-1`` on dequeue) instead of a per-cycle list
  comprehension, and the dequeue scan pops on ``at_source == 0`` alone —
  every completion path zeroes ``at_source``, making the ``is_done``
  check redundant.

Equivalence is enforced three ways: the A/B/C suite
(``tests/integration/test_fast_path_equivalence.py``), the golden trace
digests (``tests/golden``) and the differential fuzzer's ``vectorized``
axis (``repro.validation.differential``).
"""

from __future__ import annotations

from typing import Optional

from repro.config import SimulationConfig
from repro.network.message import Message, MessageStatus
from repro.network.simulator import (
    _PHASE_ALLOC,
    _PHASE_MOVE,
    NetworkSimulator,
)
from repro.network.soa import SoAState
from repro.routing.batch import CandidateTable
from repro.routing.selection import (
    LowestIndexFirst,
    RandomSelection,
    StraightThroughFirst,
)

__all__ = ["VectorizedEngine"]

#: shared empty snapshot handed to generators that never read queue depths
_NO_QLENS: list[int] = []


class VectorizedEngine(NetworkSimulator):
    """Structure-of-arrays engine; see the module docstring."""

    #: the state-mirror class (the kernel tier swaps in numpy columns)
    soa_class = SoAState

    def __init__(self, config: SimulationConfig, trace=None) -> None:
        super().__init__(config, trace)
        self.soa = self.soa_class(self.pool)
        self._cands = CandidateTable(self.routing, self.topology, self.pool)
        self._vc_dim = self._cands.vc_dim
        self._arb_random = config.arbitration == "random"
        # exact-type checks: the inlined draws replay these specific
        # policies; any other (or subclassed) policy goes through its own
        # choose() unmodified
        self._sel_straight = type(self.selection) is StraightThroughFirst
        self._sel_random = type(self.selection) is RandomSelection
        self._sel_lowest = type(self.selection) is LowestIndexFirst
        reg = self.obs.registry if self.obs.enabled else None
        self._vec_reg = reg
        # generate-phase qlens snapshot is only read by capped generators
        from repro.traffic.injection import MessageGenerator

        self._gen_needs_qlens = not (
            type(self.generator) is MessageGenerator
            and self.generator.max_queued_per_node is None
        )
        # maintained queue-depth snapshot: every read happens inside
        # generator.tick() before any queue mutation of the cycle, so a
        # live-maintained copy equals the scalar engines' per-cycle listcomp
        self._qlens = [0] * len(self.queues)
        # cumulative phase counters (cheap ints; see vec_stats())
        self.vec_alloc_requests = 0
        self.vec_alloc_serves = 0
        self.vec_stall_skips = 0
        self.vec_move_mobile = 0
        self.vec_immobile_skips = 0

    def vec_stats(self) -> dict[str, int]:
        """Cumulative engine counters plus SoA slot-allocator accounting."""
        return {
            "alloc_requests": self.vec_alloc_requests,
            "alloc_serves": self.vec_alloc_serves,
            "stall_skips": self.vec_stall_skips,
            "move_mobile": self.vec_move_mobile,
            "immobile_skips": self.vec_immobile_skips,
            "candidate_table_entries": len(self._cands),
            "slots_total": len(self.soa.slot_msgs),
            "slots_recycled": self.soa.slots_recycled,
            "slots_high_water": self.soa.high_water,
        }

    # -- inline arbitration stream ---------------------------------------------------
    def _shuffle_inline(self, x: list) -> None:
        """Bit-exact ``self.rng.shuffle(x)`` via direct getrandbits calls.

        Identical word stream: ``_randbelow(m)`` draws ``getrandbits(k)``
        with ``k = m.bit_length()`` and rejects until ``r < m``.  ``m``
        descends by one per step, so ``k`` is maintained against a falling
        power-of-two boundary instead of recomputed.
        """
        n = len(x)
        hi = n
        k = n.bit_length()
        getrandbits = self.rng.getrandbits
        # k == m.bit_length() for every threshold m in n..2, so the descent
        # runs per constant-k block with range supplying the thresholds —
        # no per-draw boundary check or decrement (m == i + 1 throughout)
        while hi > 1:
            # hi > 1 forces k >= 2, so lo - 1 >= 1 and the range never
            # descends past the final threshold m == 2
            lo = 1 << (k - 1)
            for m in range(hi, lo - 1, -1):
                r = getrandbits(k)
                while r >= m:
                    r = getrandbits(k)
                i = m - 1
                x[i], x[r] = x[r], x[i]
            hi = lo - 1
            k -= 1

    # -- fast-path bookkeeping overrides (flag mirrors) -------------------------------
    def _begin_wait(self, msg: Message, keys: Optional[tuple]) -> None:
        super()._begin_wait(msg, keys)
        slot = msg.slot
        if slot is not None and msg.stalled:
            self.soa.stalled[slot] = 1

    def _drop_wait_keys(self, msg: Message) -> None:
        super()._drop_wait_keys(msg)
        slot = msg.slot
        if slot is not None:
            self.soa.stalled[slot] = 0

    def _wake(self, key) -> None:
        if self._fault_skip_wake:
            return
        waiters = self._wake_index.get(key)
        if waiters:
            live = self._live
            stalled = self.soa.stalled
            for mid in waiters:
                m = live.get(mid)
                if m is not None:
                    m.stalled = False
                    if m.slot is not None:
                        stalled[m.slot] = 0

    def _release_due_headers(self) -> None:
        due = self._delay_due
        cycle = self.cycle
        routable = self.soa.routable
        while due and due[0][0] <= cycle:
            _, msg = due.popleft()
            if (
                msg.is_done
                or msg.recovering
                or msg.is_draining
                or msg.head_arrival is None
            ):
                continue
            msg.routable = True
            routable[msg.slot] = 1

    def _remove_victim(self, victim: Message) -> None:
        owned = tuple(vc.index for vc in victim.vcs)
        held_rx = victim.reception
        super()._remove_victim(victim)
        soa = self.soa
        if held_rx is not None:
            soa.rx_owner[soa.rx_index(held_rx.node, held_rx.index)] = -1
        if victim.is_done:
            soa.on_done(victim, owned)
        else:
            # flit-by-flit teardown: the slot stays live while the worm
            # drains through the recovery lane
            soa.sync_message(victim)

    # -- the four phases ---------------------------------------------------------------
    def _phase_generate(self) -> None:
        on_created = self.soa.on_created
        qlens = self._qlens
        # an uncapped MessageGenerator never reads queue_lengths, so hand
        # it the shared empty snapshot instead of the maintained one
        snapshot = qlens if self._gen_needs_qlens else _NO_QLENS
        for msg in self.generator.tick(self.cycle, snapshot):
            self.queues[msg.src].append(msg)
            qlens[msg.src] += 1
            self._live[msg.id] = msg
            on_created(msg)
            self.stats.on_generated(self.cycle)

    def _phase_allocate(self) -> None:
        queued = MessageStatus.QUEUED
        requests: list[Message] = []
        append = requests.append
        live_pop = self._live.pop
        qlens = self._qlens
        for q in self.queues:
            if not q:
                continue
            head = q[0]
            if head.status is queued:
                append(head)
                continue
            # done implies at_source == 0 (every completion path zeroes
            # it), so the cheap counter alone decides the pop and the
            # is_done property cascade runs only for popped messages
            while q and q[0].at_source == 0:
                done = q.popleft()
                qlens[done.src] -= 1
                if done.is_done:
                    live_pop(done.id, None)
            if q and q[0].status is queued:
                append(q[0])
        if self._delay_due:
            self._release_due_headers()
        for m in self.active.values():
            if m.routable:
                append(m)
        if self._arb_random:
            self._shuffle_inline(requests)
        else:
            requests = self._service_order(requests, _PHASE_ALLOC)

        tracker = self.tracker
        tracer = self._obs_tracer
        cycle = self.cycle
        soa = self.soa
        blocked_arr = soa.blocked
        routable_arr = soa.routable
        immobile_arr = soa.immobile
        stalled_arr = soa.stalled
        wake_index = self._wake_index
        vc_owner = soa.vc_owner
        head_vc = soa.head_vc
        tail_vc = soa.tail_vc
        rx_owner = soa.rx_owner
        rx_width = soa.rx_channels
        pool = self.pool
        routing = self.routing
        topology = self.topology
        cand_table = self._cands._table
        cache_key = routing.cache_key
        vc_dim = self._vc_dim
        sel_straight = self._sel_straight
        sel_inline_random = self._sel_random
        sel_lowest = self._sel_lowest
        getrandbits = self.rng.getrandbits
        waiting_pop = self._waiting.pop
        serves = 0
        for msg in requests:
            if msg.stalled:
                continue
            serves += 1
            vcs = msg.vcs
            if vcs and vcs[-1].dst == msg.dest:
                # -- reception branch (routable active at destination) ----
                dest = msg.dest
                rx = pool.free_reception(dest)
                if rx is not None:
                    if tracer is not None and msg.blocked_since is not None:
                        tracer.instant("wake", msg=msg.id)
                    msg.acquire_reception(rx)
                    self.blocked_epoch += 1
                    if tracker is not None:
                        tracker.on_acquire(msg.id, ("rx", dest, rx.index))
                    slot = msg.slot
                    rx_owner[dest * rx_width + rx.index] = msg.id
                    blocked_arr[slot] = 0
                    routable_arr[slot] = 0
                    immobile_arr[slot] = 0
                    msg.routable = False
                    msg.immobile = False
                    waiting_pop(msg.id, None)
                    self._drop_wait_keys(msg)
                else:
                    if msg.blocked_since is None:
                        msg.blocked_since = cycle
                        blocked_arr[msg.slot] = 1
                        self.blocked_epoch += 1
                        if tracer is not None:
                            tracer.instant("block", msg=msg.id, node=dest)
                    if tracker is not None:
                        tracker.on_block(
                            msg.id, pool.reception_request_keys(dest)
                        )
                    self._begin_wait(msg, (("rx", dest),))
                continue
            # -- VC branch (routable active mid-route, or queue head) -----
            node = vcs[-1].dst if vcs else msg.src
            key = cache_key(msg, node)
            if key is None:
                self._uncacheable_routing = True
                cands = routing.candidates(msg, node, topology, pool)
                idxs = None
            else:
                entry = cand_table.get(key)
                if entry is None:
                    cands = routing.candidates(msg, node, topology, pool)
                    idxs = tuple(vc.index for vc in cands)
                    cand_table[key] = (cands, idxs)
                else:
                    cands, idxs = entry
            free = [vc for vc in cands if vc.owner is None]
            if not free:
                choice = None
            elif sel_straight:
                pick = free
                if vcs:
                    cur = vc_dim[vcs[-1].index]
                    straight = [vc for vc in free if vc_dim[vc.index] == cur]
                    if straight:
                        pick = straight
                n = len(pick)
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                choice = pick[r]
            elif sel_inline_random:
                n = len(free)
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                choice = free[r]
            elif sel_lowest:
                choice = min(free, key=_by_index)
            else:
                choice = self.selection.choose(msg, free, self.rng)
            if choice is not None:
                was_queued = msg.status is queued
                if tracer is not None and msg.blocked_since is not None:
                    tracer.instant("wake", msg=msg.id)
                msg.acquire_vc(choice, cycle)
                self.blocked_epoch += 1
                if tracker is not None:
                    tracker.on_acquire(msg.id, choice.index)
                slot = msg.slot
                ci = choice.index
                vc_owner[ci] = msg.id
                head_vc[slot] = ci
                if tail_vc[slot] < 0:
                    tail_vc[slot] = ci
                blocked_arr[slot] = 0
                routable_arr[slot] = 0
                immobile_arr[slot] = 0
                msg.routable = False
                msg.immobile = False
                waiting_pop(msg.id, None)
                self._drop_wait_keys(msg)
                if was_queued:
                    self.active[msg.id] = msg
                    self.stats.on_injected(cycle)
            elif vcs:
                if msg.blocked_since is None:
                    msg.blocked_since = cycle
                    blocked_arr[msg.slot] = 1
                    self.blocked_epoch += 1
                    if tracer is not None:
                        tracer.instant("block", msg=msg.id, node=node)
                if tracker is not None:
                    tracker.on_block(
                        msg.id,
                        idxs
                        if idxs is not None
                        else [vc.index for vc in cands],
                    )
                keys = None
                if msg.wait_keys is None and not self._uncacheable_routing:
                    keys = idxs
                self._begin_wait(msg, keys)
            else:
                # Queue-head injection failed: every candidate VC at the
                # source is owned.  The attempt consumed no RNG and mutated
                # nothing, so it is skippable verbatim until one awaited VC
                # frees — register the head in the wake index only
                # (blocked_since and the waiting set stay untouched: those
                # are active-message state the scalar engines never set for
                # queue heads).
                if msg.wait_keys is not None:
                    msg.stalled = True
                    stalled_arr[msg.slot] = 1
                elif idxs is not None and not self._uncacheable_routing:
                    msg.wait_keys = idxs
                    for wkey in idxs:
                        waiters = wake_index.get(wkey)
                        if waiters is None:
                            wake_index[wkey] = waiters = set()
                        waiters.add(msg.id)
                    msg.stalled = True
                    stalled_arr[msg.slot] = 1
        self.vec_alloc_requests += len(requests)
        self.vec_alloc_serves += serves
        self.vec_stall_skips += len(requests) - serves
        if self._vec_reg is not None:
            self._vec_reg.histogram("engine/alloc_requests").observe(
                len(requests)
            )
            self._vec_reg.histogram("engine/alloc_serves").observe(serves)

    def _phase_move(self) -> None:
        link_used = self._link_used
        link_used[:] = self._zero_links
        tracker = self.tracker
        cycle = self.cycle
        delay = self._router_delay
        soa = self.soa
        occ = soa.vc_occupancy
        at_src = soa.at_source
        eject = soa.ejected
        routable_arr = soa.routable
        immobile_arr = soa.immobile
        order = list(self.active.values())
        if self._arb_random:
            self._shuffle_inline(order)
        else:
            order = self._service_order(order, _PHASE_MOVE)
        finished: list[Message] = []
        torn_down: list[Message] = []
        mobile = 0
        for msg in order:
            if msg.immobile:
                continue
            mobile += 1
            vcs = msg.vcs
            slot = msg.slot
            moved = False
            if msg.recovering:
                if msg.teardown_step():  # one flit into the recovery lane
                    head = vcs[-1]
                    occ[head.index] = head.occupancy
                    eject[slot] += 1
            elif msg.is_draining and vcs and vcs[-1].occupancy > 0:
                head = vcs[-1]
                head.occupancy -= 1
                occ[head.index] -= 1
                msg.ejected += 1
                eject[slot] += 1
                moved = True
            # Head-to-tail boundary pass: each flit advances at most one hop.
            for i in range(len(vcs) - 1, -1, -1):
                dst = vcs[i]
                if dst.occupancy >= dst.capacity:
                    continue
                li = dst.link_index
                if link_used[li]:
                    continue
                if i > 0:
                    src = vcs[i - 1]
                    if src.occupancy == 0:
                        continue
                    src.occupancy -= 1
                    occ[src.index] -= 1
                else:
                    if msg.at_source == 0:
                        continue
                    msg.at_source -= 1
                    at_src[slot] -= 1
                dst.occupancy += 1
                occ[dst.index] += 1
                link_used[li] = 1
                moved = True
                if i == len(vcs) - 1 and msg.head_arrival is None:
                    msg.head_arrival = cycle  # header reached a new node
                    if not msg.recovering:
                        if delay == 0:
                            msg.routable = True
                            routable_arr[slot] = 1
                        else:
                            self._delay_due.append((cycle + delay, msg))
            released = msg.release_drained_tail()
            if released:
                self.blocked_epoch += 1
                soa.on_released(msg, [vc.index for vc in released])
                for vc in released:
                    if tracker is not None:
                        tracker.on_release(msg.id, vc.index)
                    self._wake(vc.index)
                if msg.wait_keys is not None:
                    # the chain shortened: candidate keys that include the
                    # hop count (misrouting budgets) may now differ, so the
                    # next attempt must re-derive the awaited set
                    self._drop_wait_keys(msg)
                if (
                    tracker is not None
                    and msg.blocked_since is not None
                    and msg.needs_next_vc
                    and tracker.requests.get(msg.id) is not None
                ):
                    # keep the maintained CWG equal to a rebuild: relations
                    # with chain-length-dependent candidates may offer a
                    # different set now that the tail drained
                    tracker.on_block(
                        msg.id,
                        [vc.index for vc in self.route_candidates(msg)],
                    )
            if msg.recovering:
                if msg.teardown_complete and not msg.vcs:
                    torn_down.append(msg)
            elif msg.ejected == msg.length and msg.is_draining:
                finished.append(msg)
            elif not moved and not msg.is_draining and vcs:
                # Nothing moved: if every owned buffer is also full, the
                # worm is fully compressed and provably immobile until it
                # acquires a new resource (which clears the flag).
                for vc in vcs:
                    if vc.occupancy < vc.capacity:
                        break
                else:
                    msg.immobile = True
                    immobile_arr[slot] = 1
        rx_width = soa.rx_channels
        for msg in finished:
            rx_node = msg.dest
            rx = msg.reception
            soa.rx_owner[rx_node * rx_width + rx.index] = -1
            msg.finish_delivery(cycle)
            self.active.pop(msg.id)
            self._live.pop(msg.id, None)
            self.blocked_epoch += 1
            if tracker is not None:
                tracker.on_done(msg.id)
            self._end_wait(msg)
            self._wake(("rx", rx_node))
            soa.on_done(msg)
            self.stats.on_delivered(msg, cycle)
        for msg in torn_down:
            msg.remove_from_network(
                cycle, delivered=self.recovery.delivers_victim
            )
            self.active.pop(msg.id)
            self._live.pop(msg.id, None)
            self.blocked_epoch += 1
            if tracker is not None:
                tracker.on_done(msg.id)
            self._end_wait(msg)
            soa.on_done(msg)
            self.stats.on_recovered(msg, cycle)
        self.vec_move_mobile += mobile
        self.vec_immobile_skips += len(order) - mobile
        if self._vec_reg is not None:
            self._vec_reg.histogram("engine/move_mobile").observe(mobile)

    # -- invariants ------------------------------------------------------------------
    def check_invariants(self) -> None:
        super().check_invariants()
        self.soa.verify(self)


def _by_index(vc) -> int:
    return vc.index
