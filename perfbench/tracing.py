"""Timing, operation counts and spans for one benchmark run.

Every verdict call goes through `Run.call`, which times it (wall and CPU
of this process and its waited-for children), counts it as an attempted
operation, and, in a traced run, records a span around it.  Spans are
kept in memory and written out with the run record when the run ends.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set size of this process or of its largest child, in MB
    (Linux reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


class Op:
    """One attempted verdict call and the checks made on its result."""

    __slots__ = ("run", "result", "failed")

    def __init__(self, run: "Run", result, failed: bool):
        self.run, self.result, self.failed = run, result, failed

    def check(self, ok: bool, what: str) -> bool:
        """Record a verdict check; a failed one fails the operation."""
        if not ok:
            self.run.wrong_checks.append(what)
            if not self.failed:
                self.failed = True
                self.run.failed += 1
        return ok


class Run:
    """One workload run: its rounds, operation counts, failed checks and,
    when traced, its spans."""

    def __init__(self, workload: str, traced: bool):
        self.workload = workload
        self.traced = traced
        self.spans: list = []      # [name, start, end, parent index or None]
        self._open: list = []      # indices of the spans not yet closed
        self.rounds: list = []     # per round: {"run_s": ..., "cpu_s": ...}
        self.attempted = 0
        self.failed = 0
        self.wrong_checks: list = []  # verdict checks that failed
        self.errors: list = []     # calls that raised
        self.counts: dict = {}     # per-layer values that are not span times,
                                   # summed over the rounds
        self._wall = self._cpu = 0.0

    @contextmanager
    def span(self, name: str):
        if not self.traced:
            yield
            return
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._open.pop()][2] = time.perf_counter()

    @contextmanager
    def round(self):
        self._wall = self._cpu = 0.0
        with self.span("round"):
            yield
        self.rounds.append({"run_s": self._wall, "cpu_s": self._cpu})

    def call(self, name: str, fn, *args, **kwargs) -> Op:
        """A timed verdict call.  An exception fails the operation."""
        self.attempted += 1
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with self.span(name):
                result = fn(*args, **kwargs)
            failed = False
        except Exception as exc:  # counted, reported, and the run goes on
            result, failed = None, True
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
        self._wall += time.perf_counter() - t0
        self._cpu += cpu_seconds() - cpu0
        return Op(self, result, failed)

    def count(self, name: str, value):
        """Add to a per-layer value that is not a span time."""
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> dict:
        """Per span name: total duration minus the time its child spans
        cover.  Spans inside rounds are averaged over the rounds; the
        set-up spans happen once."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = {}
        n_rounds = max(len(self.rounds), 1)
        for i, (name, start, end, parent) in enumerate(self.spans):
            top = i
            while self.spans[top][3] is not None:
                top = self.spans[top][3]
            share = (end - start - child_time[i]) / (n_rounds if self.spans[top][0] == "round" else 1)
            out[name] = out.get(name, 0.0) + share
        return out

    def span_records(self) -> list:
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "workload": self.workload}
                for name, start, end, parent in self.spans]
