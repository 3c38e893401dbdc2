"""Spans recorded around calls into the library, from outside it.

Tracer.install replaces each function in TRACED, in every loaded
heilbronn module that binds it, by a wrapper that records a span: name,
start, end, parent span, op id, the rise of the process's peak RSS, and
whether the call raised.  Calls between the library's own modules go
through those bindings too, so nested public calls become child spans.
Tracer.remove puts the original functions back.
"""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass
from typing import NamedTuple

TRACED = (
    "modarith.primitive_root_mod_p2",
    "modarith.build_context",
    "modarith.log_level_sets",
    "modarith.truncated_log",
    "spectra.spectrum",
    "spectra.heilbronn_partition",
    "spectra.heilbronn_table",
    "spectra.verify_spectrum_identities",
    "sctheory.build_U",
    "fermat.fermat_F_spectral",
    "fermat.structure_constants_spectral_all",
    "fermat.third_moment_check",
    "fermat.quartic_power_check",
    "fermat.ciik_report",
)


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: int | str       # op index, or "setup"
    rss_delta_kb: int
    error: bool


class Tracer:
    """Keeps spans in memory, in the order their calls started."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.op: int | str = "setup"
        self._stack: list[int] = []
        # (module, attribute, original, wrapper) for every replaced binding
        self._bindings: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        rss0 = maxrss_kb()
        error = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            error = False
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op,
                                     maxrss_kb() - rss0, error)

    def install(self) -> None:
        """Route every binding of the TRACED functions through call().  The
        bindings are found on the first install, in the heilbronn modules
        loaded by then."""
        if not self._bindings:
            modules = [m for n, m in list(sys.modules.items())
                       if n == "heilbronn" or n.startswith("heilbronn.")]
            for name in TRACED:
                module, func = name.split(".")
                original = getattr(sys.modules[f"heilbronn.{module}"], func)
                traced = self._wrap(name, original)
                self._bindings += [(m, attr, original, traced) for m in modules
                                   for attr, v in vars(m).items() if v is original]
        for m, attr, _, traced in self._bindings:
            setattr(m, attr, traced)

    def remove(self) -> None:
        """Put back every binding install() replaced."""
        for m, attr, original, _ in self._bindings:
            setattr(m, attr, original)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans of one thread nest, so a span's children never overlap and the
    covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


@dataclass(frozen=True)
class Layer:
    calls: int
    errors: int
    self_s: float            # summed over calls
    peak_rss_delta_mb: float  # summed over calls, children included


def layers(spans: list[Span], ops_only: bool = False) -> dict[str, Layer]:
    """Per span name: calls, errors, total self time and peak-RSS rise,
    leaving out set-up spans if ops_only."""
    out: dict[str, list] = {}
    for s, t in zip(spans, self_times(spans)):
        if ops_only and s.op == "setup":
            continue
        acc = out.setdefault(s.name, [0, 0, 0.0, 0])
        acc[0] += 1
        acc[1] += s.error
        acc[2] += t
        acc[3] += s.rss_delta_kb
    return {name: Layer(c, e, t, kb / 1024.0)
            for name, (c, e, t, kb) in out.items()}
