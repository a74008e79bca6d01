"""Timing of calls into klctrl's layers, from outside the package.

``Tracer.wrap`` replaces a name in a module's namespace with a timed wrapper,
so every call the module makes through that name is added to a per-layer
total. Only the benchmark's traced run installs wrappers; ``restore`` puts
the original names back.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    def __init__(self):
        self.seconds = {}
        self.counts = {}
        self.last_end = {}
        self._undo = []

    def wrap(self, module, attr, key, count=None):
        """Time calls made through ``module.attr`` under ``key``; ``count``
        maps a result to a number of work items added to ``counts[key]``."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.seconds[key] = self.seconds.get(key, 0.0) + (end - start)
                self.last_end[key] = end
            if count is not None:
                self.counts[key] = self.counts.get(key, 0) + count(result)
            return result

        setattr(module, attr, timed)
        self._undo.append((module, attr, original))

    def restore(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def snapshot(self):
        return dict(self.seconds), dict(self.counts)

    def since(self, snap):
        """Per-key (seconds, count) added since ``snap``."""
        seconds, counts = snap
        return {
            key: (self.seconds[key] - seconds.get(key, 0.0), self.counts.get(key, 0) - counts.get(key, 0))
            for key in self.seconds
        }
