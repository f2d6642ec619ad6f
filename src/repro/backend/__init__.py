"""A stub kept for one reader: ``perfbench/harness.py`` records
``get_backend().name`` in every benchmark run's metadata.

Every kernel is a plain NumPy function beside its caller, so there is
nothing to select; the name is always ``"numpy"``.
"""

from types import SimpleNamespace

__all__ = ["get_backend"]

_NUMPY = SimpleNamespace(name="numpy")


def get_backend() -> SimpleNamespace:
    """The one compute backend, named ``"numpy"``."""
    return _NUMPY
