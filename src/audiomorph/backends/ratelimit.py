"""Thread-safe request admission at a fixed maximum rate."""

from __future__ import annotations

import threading
import time

from ..errors import ParameterError


class RateLimiter:
    """Serializes admissions so consecutive grants are at least
    1/per_second apart, regardless of how many threads contend.

    A caller holds the lock while it sleeps until the next slot, and the
    slot after it is set from the time it actually woke. So a caller that
    wakes late pushes back every caller behind it, rather than letting
    them through on their own schedule right after it.
    """

    def __init__(self, per_second: float):
        if not per_second > 0:
            raise ParameterError(f"rate limit must be positive, got {per_second}")
        self._interval = 1.0 / per_second
        self._lock = threading.Lock()
        self._next_slot = 0.0

    def acquire(self) -> None:
        with self._lock:
            delay = self._next_slot - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            self._next_slot = time.monotonic() + self._interval
