"""Mock moderation server for the http-mock workload, run as its own process.

It serves the repository's ``tests/mockserver.py`` server with a digest-keyed
plan. Requests carry ``{"audio": ..., "digest": ..., "epoch": ...}``; each
campaign call uses its own epoch, so the "fail once" state starts fresh for
every campaign.

* A fixed digest-chosen share answers 503 on every attempt
  (``PERMANENT_PCT``), and another share answers 503 on the first attempt of
  an epoch and then recovers (``TRANSIENT_PCT``). 503s are answered at once.
* Any other request sleeps ``SERVICE_MS`` and answers a label. Seed digests
  listed in ``--labels`` get their declared category, and every other digest
  gets ``LABELS[int(digest[:8], 16) % 4]``.
* ``{"stats": epoch}`` returns the epoch's request count, 503 count and
  total service time, taken from the server's own clock.

Usage: ``python3 perfbench/httpserver.py --root . --labels L --ready R``.
The server prints nothing; it writes its URL to the ready file and exits
when its standard input closes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time

PERMANENT_PCT = 4
TRANSIENT_PCT = 16
SERVICE_MS = 15.0
LABELS = ("ok", "harassment", "sexual", "promotion")
CATEGORIES = {"ok": "non_toxic", "harassment": "insult", "sexual": "porn", "promotion": "spam"}
PROVIDER_LABEL = {category: label for label, category in CATEGORIES.items()}


def failure_kind(digest: str) -> str:
    """'permanent', 'transient' or '' for a content digest."""
    share = int(digest[8:16], 16) % 100
    if share < PERMANENT_PCT:
        return "permanent"
    if share < PERMANENT_PCT + TRANSIENT_PCT:
        return "transient"
    return ""


def label_for(digest: str, seed_labels) -> str:
    return seed_labels.get(digest) or LABELS[int(digest[:8], 16) % len(LABELS)]


def expected_category(digest: str, seed_labels):
    """The category a campaign records for a digest, or None when the
    server never answers it (the retry budget covers one transient 503)."""
    if failure_kind(digest) == "permanent":
        return None
    return CATEGORIES[label_for(digest, seed_labels)]


class Plan:
    """Response plan for MockModerationServer: plan(index, body) -> (status, payload)."""

    def __init__(self, seed_labels):
        self._seed_labels = dict(seed_labels)
        self._lock = threading.Lock()
        self._failed_once = set()
        self._stats = {}
        self.server = None

    def _record(self, epoch: str, status: int, started: float) -> None:
        elapsed_ms = (time.monotonic() - started) * 1000.0
        with self._lock:
            entry = self._stats.setdefault(
                epoch, {"requests": 0, "status_503": 0, "service_ms": 0.0}
            )
            entry["requests"] += 1
            entry["status_503"] += status == 503
            entry["service_ms"] += elapsed_ms

    def __call__(self, index, body):
        started = time.monotonic()
        message = json.loads(body) if body else {}
        if "stats" in message:
            # the server logs every request body; drop them between campaigns
            self.server.reset()
            with self._lock:
                empty = {"requests": 0, "status_503": 0, "service_ms": 0.0}
                return 200, self._stats.pop(message["stats"], empty)
        digest, epoch = message["digest"], message["epoch"]
        kind = failure_kind(digest)
        if kind == "transient":
            with self._lock:
                first = (epoch, digest) not in self._failed_once
                self._failed_once.add((epoch, digest))
            if first:
                kind = "permanent"
        if kind == "permanent":
            self._record(epoch, 503, started)
            return 503, {"error": "overloaded"}
        time.sleep(SERVICE_MS / 1000.0)
        label = label_for(digest, self._seed_labels)
        self._record(epoch, 200, started)
        return 200, {"result": {"label": label, "score": 0.9}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout root holding tests/mockserver.py")
    parser.add_argument("--labels", required=True, help="JSON map of seed digest to provider label")
    parser.add_argument("--ready", required=True, help="file that receives the server URL")
    args = parser.parse_args()

    sys.path.insert(0, os.path.abspath(args.root))
    from tests.mockserver import MockModerationServer

    with open(args.labels, encoding="utf-8") as fh:
        seed_labels = json.load(fh)
    plan = Plan(seed_labels)
    with MockModerationServer(plan) as server:
        plan.server = server
        tmp = args.ready + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(server.url)
        os.replace(tmp, args.ready)
        sys.stdin.read()  # returns when the parent closes the pipe
    return 0


if __name__ == "__main__":
    sys.exit(main())
