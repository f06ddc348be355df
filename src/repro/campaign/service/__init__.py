"""Distributed campaign service: scheduler, workers, live status.

A campaign can outgrow one machine.  This package turns the resumable
single-host campaign (:mod:`repro.campaign`) into a small distributed
system while preserving its core guarantee — a sweep drained by N
networked workers is **bit-identical** (artifact-for-artifact) to the
same sweep run locally:

* :mod:`~repro.campaign.service.scheduler` — work-stealing lease
  scheduler: a FIFO pending-point queue (requeued points go to the
  back), lease TTL + heartbeats, reaping and requeueing;
* :mod:`~repro.campaign.service.server` — :class:`CampaignService`, the
  asyncio facade tying scheduler + workers + store together, including
  journal-fed single-writer manifest compaction.  A claim with nothing
  pending parks on the server until a lease or ``done`` can answer it;
* :mod:`~repro.campaign.service.executor` — :func:`execute_point`, the
  single way a worker runs a point;
* :mod:`~repro.campaign.service.worker` — the TCP worker
  (``repro campaign worker --connect``) and its LDJSON protocol
  (:mod:`~repro.campaign.service.protocol`).  The service's local slots
  (``local_workers=N``) are N of these sessions on loopback connections;
* :mod:`~repro.campaign.service.status` — polling-JSON + SSE live status
  (``repro campaign watch``);
* :mod:`~repro.campaign.service.runner` — :class:`ServiceRunner`, the
  :class:`~repro.campaign.runner.CampaignRunner` look-alike experiments
  use to drain their sweeps through a service.
"""

from repro.campaign.service.executor import execute_point
from repro.campaign.service.runner import ServiceRunner
from repro.campaign.service.scheduler import Lease, LeaseScheduler, SchedulerPoint
from repro.campaign.service.server import CampaignService, ServiceError
from repro.campaign.service.worker import WorkerError, WorkerSession, run_worker

__all__ = [
    "CampaignService",
    "ServiceError",
    "LeaseScheduler",
    "SchedulerPoint",
    "Lease",
    "execute_point",
    "WorkerSession",
    "WorkerError",
    "run_worker",
    "ServiceRunner",
]
