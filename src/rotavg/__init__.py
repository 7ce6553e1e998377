"""Robust single rotation averaging.

A truncated-loss estimator that recovers one rotation from a sample set
drowning in outliers (up to ~99%), plus the SO(3) kernel it stands on, a
Monte-Carlo benchmark harness, and a point-cloud registration demo that
turns correspondence triples into rotation hypotheses and averages them.
The package exports every name in the __all__ of so3, averaging, bench and
registration; fileio and cli stay submodules.
"""

from rotavg import averaging, bench, registration, so3
from rotavg.averaging import *  # noqa: F403
from rotavg.bench import *  # noqa: F403
from rotavg.registration import *  # noqa: F403
from rotavg.so3 import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *so3.__all__, *averaging.__all__, *bench.__all__, *registration.__all__]
