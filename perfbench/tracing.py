"""Span tracing for the traced run, kept entirely in the benchmark's files.

``install`` wraps the public functions the program calls, in the modules
that call them: the ``OPS`` entries, ``content_digest``, ``read_wav``,
``write_wav`` and ``wav_bytes``, ``extract_mfcc`` and ``dtw_distance``, and
``RateLimiter.acquire``. ``TracedBackend`` wraps a backend's ``moderate``
for backends passed to ``run_campaign``; replay builds its own fixture
backends, so ``install`` can wrap ``FixtureBackend.moderate`` instead.

A span records its name, start, end, parent span, case id and thread. Pool
threads run spans concurrently, so a span's parent is the span open on its
own thread, or the campaign's root span. Spans stay in memory until the
campaign ends. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from audiomorph.backends import ModerationBackend


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    case: Optional[str]
    thread: int
    error: Optional[str] = None
    digest: Optional[str] = None  # moderate spans: digest of the queried clip

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one campaign at a time (``begin`` .. ``end``).

    It also tracks the clips it has seen, keyed by object identity until
    the clip is freed: the case id and digest of each, and the bytes of
    perturbed clips alive, whose peak is ``peak_bytes``.
    """

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.RLock()  # finalizers may run inside note()
        self._audio: Dict[int, list] = {}
        self._root: Optional[Span] = None
        self.spans: List[Span] = []
        self.live_bytes = 0
        self.peak_bytes = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def note(self, audio, case=None, digest=None, perturbed=False) -> None:
        key = id(audio)
        with self._lock:
            entry = self._audio.get(key)
            if entry is None:
                nbytes = audio.samples.nbytes if perturbed else 0
                self._audio[key] = [case, digest]
                weakref.finalize(audio, self._forget, key, nbytes)
                self.live_bytes += nbytes
                self.peak_bytes = max(self.peak_bytes, self.live_bytes)
            elif digest is not None:
                entry[1] = digest

    def _forget(self, key: int, nbytes: int) -> None:
        with self._lock:
            self._audio.pop(key, None)
            self.live_bytes -= nbytes

    def case_of(self, audio) -> Optional[str]:
        entry = self._audio.get(id(audio))
        return entry[0] if entry else None

    def digest_of(self, audio) -> Optional[str]:
        entry = self._audio.get(id(audio))
        return entry[1] if entry else None

    def call(self, name: str, fn: Callable, args, kwargs, case=None, digest=None):
        stack = self._stack()
        if stack:
            parent, inherited = stack[-1]
        else:
            parent, inherited = (self._root.id if self._root else None), None
        case = case or inherited
        span_id = next(self._ids)
        stack.append((span_id, case))
        error = None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, case, threading.get_ident(), error, digest)
            )

    def begin(self) -> None:
        self.spans = []
        self.peak_bytes = self.live_bytes
        self._root = Span(next(self._ids), "campaign", time.perf_counter(), 0.0, None, None,
                          threading.get_ident())
        self._stack().append((self._root.id, None))

    def end(self) -> List[Span]:
        self._stack().pop()
        root, self._root = self._root, None
        root.end = time.perf_counter()
        spans, self.spans = self.spans + [root], []
        return spans


class TracedBackend(ModerationBackend):
    """Proxy that records a ``<layer>.moderate`` span around each query."""

    def __init__(self, inner: ModerationBackend, tracer: Tracer, layer: str):
        self.name = inner.name
        self._inner = inner
        self._tracer = tracer
        self._span = f"{layer}.moderate"

    def moderate(self, audio, *args, **kwargs):
        t = self._tracer
        return t.call(self._span, self._inner.moderate, (audio, *args), kwargs,
                      case=t.case_of(audio), digest=t.digest_of(audio))


def install(tracer: Tracer, trace_fixture_class: bool) -> Callable[[], None]:
    """Wrap the program's public functions where its modules look them up.
    Returns a function that restores the originals."""
    import audiomorph.campaign as campaign
    import audiomorph.perturb as perturb
    from audiomorph.backends import fixture, http, ratelimit, spotter

    restore: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        is_dict = isinstance(owner, dict)
        original = owner.get(attr) if is_dict else getattr(owner, attr, None)
        if original is None:
            # a renamed or moved layer must break the traced run, not read
            # as a layer that takes no time
            where = "OPS" if is_dict else getattr(owner, "__name__", repr(owner))
            raise LookupError(f"tracing: {where}.{attr} no longer exists; update perfbench/tracing.py")
        wrapper = functools.wraps(original)(make(original))
        restore.append((owner, attr, original))
        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)

    def plain(name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs)
            return wrapper
        return make

    def on_audio(name: str):
        def make(fn):
            def wrapper(audio, *args, **kwargs):
                return tracer.call(name, fn, (audio, *args), kwargs, case=tracer.case_of(audio))
            return wrapper
        return make

    def digest(fn):
        def wrapper(audio, *args, **kwargs):
            result = tracer.call("audio.content_digest", fn, (audio, *args), kwargs,
                                 case=tracer.case_of(audio))
            tracer.note(audio, digest=result)
            return result
        return wrapper

    def read(fn):
        def wrapper(path, *args, **kwargs):
            case = Path(str(path)).stem
            result = tracer.call("audio.read_wav", fn, (path, *args), kwargs, case=case)
            tracer.note(result, case=case)
            return result
        return wrapper

    def op(kind: str):
        def make(fn):
            def wrapper(audio, *args, **kwargs):
                case = f"{tracer.case_of(audio)}/{kind}"
                result = tracer.call(f"perturb.{kind}", fn, (audio, *args), kwargs, case=case)
                if result is not audio:
                    tracer.note(result, case=case, perturbed=True)
                return result
            return wrapper
        return make

    def fixture_moderate(fn):
        def wrapper(self, audio, *args, **kwargs):
            return tracer.call("fixture.moderate", fn, (self, audio, *args), kwargs,
                               case=tracer.case_of(audio), digest=tracer.digest_of(audio))
        return wrapper

    for kind in list(perturb.OPS):
        patch(perturb.OPS, kind, op(kind))
    patch(campaign, "benign_discontinuity_audio", op("discontinuity"))
    patch(campaign, "read_wav", read)
    patch(campaign, "write_wav", on_audio("audio.write_wav"))
    for module in (campaign, fixture, http):
        patch(module, "content_digest", digest)
    patch(http, "wav_bytes", on_audio("audio.wav_bytes"))
    patch(spotter, "extract_mfcc", on_audio("spotter.mfcc"))
    patch(spotter, "dtw_distance", plain("spotter.dtw"))
    patch(ratelimit.RateLimiter, "acquire", plain("ratelimit.acquire"))
    if trace_fixture_class:
        patch(fixture.FixtureBackend, "moderate", fixture_moderate)

    def undo() -> None:
        for owner, attr, original in reversed(restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    return undo


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    children: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.duration
    return {s.id: s.duration - children[s.id] for s in spans}


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """(pct, value) for the highest of 99.9/99/95/90/75/50 with at least ten
    samples beyond it; 50 when there are too few samples for any."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - pct / 100.0) >= 10:
            return pct, percentile(values, pct)
    return 50.0, percentile(values, 50.0)


def stage_windows(spans: Sequence[Span]) -> Dict[str, float]:
    """Campaign stages from span boundaries, in ms: probe (start to the
    first perturbation), generate (to the first query of a perturbed clip),
    query (to the last query's end) and emit (to the campaign's end)."""
    root = next(s for s in spans if s.parent is None)
    ops = [s.start for s in spans if s.name.startswith("perturb.")]
    queries = [s for s in spans if s.name.endswith(".moderate")]
    first_op = min(ops, default=root.end)
    first_query = min((s.start for s in queries if s.start >= first_op), default=first_op)
    last_query = max((s.end for s in queries), default=first_query)
    marks = [root.start, first_op, first_query, max(last_query, first_query), root.end]
    names = ("probe", "generate", "query", "emit")
    return {n: max(0.0, (b - a) * 1000.0) for n, a, b in zip(names, marks, marks[1:])}
