"""Test doubles shared by the test modules."""

import threading

import numpy as np

from mwsync import PlaneMap


class FunctionMap(PlaneMap):
    """Plane map from an array-aware callable ``fn(t, x) -> (t_out, x_out)``."""

    def __init__(self, fn, label: str = "fn"):
        self.fn = fn
        self.label = label

    def components(self, t, x):
        return self.fn(t, x)

    def __repr__(self):
        return f"FunctionMap({self.label})"


class RecordingMap(PlaneMap):
    """``inner`` with each call of ``components`` (and of
    ``conformal_components``) logged as the calling thread, the method,
    the argument shapes and a hash of the argument bytes."""

    def __init__(self, inner, log: list):
        self.inner = inner
        self.log = log

    def _record(self, method, t, x):
        t, x = np.asarray(t), np.asarray(x)
        self.log.append((
            threading.get_ident(), method, t.shape, x.shape,
            hash(t.tobytes()), hash(x.tobytes()),
        ))

    def components(self, t, x):
        self._record("components", t, x)
        return self.inner.components(t, x)

    def conformal_components(self, t, x, mode):
        self._record("conformal_components", t, x)
        return self.inner.conformal_components(t, x, mode=mode)

    def __repr__(self):
        return f"RecordingMap({self.inner!r})"
