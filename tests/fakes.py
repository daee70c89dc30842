"""Test doubles shared by the test modules."""

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
