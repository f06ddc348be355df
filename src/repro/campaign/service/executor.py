"""The one way a campaign-service worker runs a point.

Every :class:`~repro.campaign.service.worker.WorkerSession` — a remote
machine's or one of the service's own loopback slots — runs its leases
through :func:`execute_point`, which reuses the per-point machinery of
:class:`~repro.campaign.runner.CampaignRunner` verbatim: a killable
forked worker process per attempt, retry with exponential backoff, a
per-point wall-clock timeout, and the injected point faults
(``crash-point`` / ``flaky-point`` / ``hang-point``).  The point runs
against a private throwaway :class:`~repro.campaign.store.ResultStore`,
and the raw artifact JSON is lifted out of it — so a point executed by
any worker on any machine produces byte-identical artifact payloads
(simulations are deterministic given their config; JSON serialization is
canonical).
"""

from __future__ import annotations

import tempfile
from typing import Optional

from repro.campaign.runner import CampaignRunner
from repro.campaign.store import ResultStore, config_from_json

__all__ = ["execute_point"]


def execute_point(
    config_json: dict,
    *,
    schema_version: int,
    retries: int = 2,
    backoff_s: float = 0.25,
    timeout_s: Optional[float] = None,
) -> dict:
    """Run one point through the fork/retry/timeout machinery.

    Returns ``{"ok": True, "artifact": payload, "attempts": n}`` on
    success — ``payload`` being the exact artifact JSON a single-host
    campaign would have written — or ``{"ok": False, "error": ...,
    "kind": ..., "attempts": n}`` after retries are exhausted.
    """
    config = config_from_json(config_json)
    with tempfile.TemporaryDirectory(prefix="repro-point-") as tmp:
        store = ResultStore(tmp, schema_version=schema_version)
        runner = CampaignRunner(
            store,
            retries=retries,
            backoff_s=backoff_s,
            timeout_s=timeout_s,
            max_workers=1,
        )
        out = runner.run_points([config])
        if out["completed"]:
            digest = store.digest(config)
            manifest_entry = store.load_manifest()["points"].get(digest, {})
            return {
                "ok": True,
                "artifact": store.read_artifact(digest),
                "attempts": manifest_entry.get("attempts", 1),
            }
        failure = out["failures"][0]
        return {
            "ok": False,
            "error": failure.error,
            "kind": failure.kind,
            "attempts": failure.attempts,
        }
