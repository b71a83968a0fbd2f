"""Read what the service and its queue recorded about a run.

The server writes one JSON line per request (handler milliseconds and
status code) next to its queue database, and the queue database keeps
each shard's enqueue time, last update, solve seconds and attempts.
Both are read after the server has stopped, so reading them perturbs
nothing that was timed.
"""

from __future__ import annotations

import json
import sqlite3
import statistics
from pathlib import Path

_KINDS = (("POST", "/v1/campaigns", "submit"), ("GET", "/result", "fetch"),
          ("GET", "/v1/campaigns/", "status"))


def _kind(method: str, path: str) -> str | None:
    for m, fragment, kind in _KINDS:
        if method == m and fragment in path:
            return kind
    return None


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class ServiceRecords:
    """Request-log and queue-database figures accumulated over a run."""

    def __init__(self) -> None:
        self.requests = 0
        self.http_4xx = 0
        self.http_5xx = 0
        self.handler_ms: dict[str, list[float]] = {
            "submit": [], "status": [], "fetch": []}
        self.claim_waits: list[float] = []
        self.retries = 0
        self.quarantined = 0

    @property
    def errors(self) -> int:
        return self.http_4xx + self.http_5xx

    def add(self, root: Path) -> None:
        """Fold in one server state directory (queue ``root/queue.db``)."""
        log = root / "queue.db.metrics.jsonl"
        if log.is_file():
            for line in log.read_text().splitlines():
                rec = json.loads(line)
                self.requests += 1
                status = int(rec["status"])
                self.http_4xx += 400 <= status < 500
                self.http_5xx += status >= 500
                kind = _kind(rec["method"], rec["path"])
                if kind is not None:
                    self.handler_ms[kind].append(float(rec["ms"]))
        db = root / "queue.db"
        if not db.is_file():
            return
        con = sqlite3.connect(f"file:{db}?mode=ro", uri=True)
        try:
            rows = con.execute(
                "SELECT state, attempts, seconds, enqueued_at, updated_at, "
                "cached FROM shards").fetchall()
        finally:
            con.close()
        for state, attempts, seconds, enqueued, updated, cached in rows:
            self.retries += max(int(attempts) - 1, 0)
            self.quarantined += state == "quarantined"
            if state == "done" and not cached and seconds is not None:
                # Completion minus solve minus enqueue: the time a shard
                # waited for a worker to spawn, poll and claim it, plus
                # its cache write.
                self.claim_waits.append(float(updated) - float(seconds)
                                        - float(enqueued))

    def metrics(self, latency) -> dict[str, float]:
        """Per-layer queue and service metrics.

        Without HTTP (every workload but ``service``) the same
        ``CampaignService`` calls ran in-process, so their call times
        stand in for the handler times; such runs make no status calls.
        """
        if self.requests:
            ms = self.handler_ms
        else:
            ms = {"submit": [x[2] for x in latency.submits], "status": [],
                  "fetch": [x[2] for x in latency.fetches]}
        return {"queue.claim_wait_s": _median(self.claim_waits),
                "queue.retries": self.retries,
                "queue.quarantined": self.quarantined,
                "service.submit_ms": _median(ms["submit"]),
                "service.status_ms": _median(ms["status"]),
                "service.fetch_ms": _median(ms["fetch"]),
                "service.http_4xx": self.http_4xx,
                "service.http_5xx": self.http_5xx}
