"""Test doubles shared by the test modules."""

import numpy as np

from mwsync import MarzkeWheelerMap, Observer, PlaneMap


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
    ``conformal_components``) logged as the method, the argument shapes
    and a hash of the argument bytes."""

    def __init__(self, inner, log: list):
        self.inner = inner
        self.log = log

    def _record(self, method, t, x):
        t, x = np.asarray(t), np.asarray(x)
        self.log.append((method, t.shape, x.shape, hash(t.tobytes()), hash(x.tobytes())))

    def components(self, t, x):
        self._record("components", t, x)
        return self.inner.components(t, x)

    def conformal_components(self, t, x, mode):
        self._record("conformal_components", t, x)
        return self.inner.conformal_components(t, x, mode=mode)

    def __repr__(self):
        return f"RecordingMap({self.inner!r})"


class CountingObserver(Observer):
    """``inner`` with the points its ``position`` and ``velocity`` are
    evaluated on counted in ``points``."""

    def __init__(self, inner):
        self.inner = inner
        self.smoothness = inner.smoothness
        self.costly_profile = inner.costly_profile
        self.points = 0

    def position(self, s):
        self.points += np.size(s)
        return self.inner.position(s)

    def velocity(self, s):
        self.points += np.size(s)
        return self.inner.velocity(s)

    def __repr__(self):
        return f"CountingObserver({self.inner!r})"


class TwoCallChart(MarzkeWheelerMap):
    """Test-only reference: the radar chart, its analytic derivative and
    its analytic conformal factor from two whole-array observer calls
    each, as they were evaluated before the null profiles were read
    along grid diagonals."""

    def components(self, t, x):
        tp, xp = self.observer.position(t + x)
        tm, xm = self.observer.position(t - x)
        return (tp + tm) * 0.5 + (xp - xm) * 0.5, (xp + xm) * 0.5 + (tp - tm) * 0.5

    def analytic_derivative(self, t, x):
        vt_p, vx_p = self.observer.velocity(t + x)
        vt_m, vx_m = self.observer.velocity(t - x)
        d_plus = vt_p + vx_p
        d_minus = vt_m - vx_m
        return (d_plus + d_minus) * 0.5, (d_plus - d_minus) * 0.5

    def analytic_factor(self, t, x):
        vt_p, vx_p = self.observer.velocity(t + x)
        vt_m, vx_m = self.observer.velocity(t - x)
        return (vt_p + vx_p) * (vt_m - vx_m)
