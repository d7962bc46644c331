"""``repro.obs`` -- the observability plane.

Span tracing, streaming quantile sketches, per-component flight recorders,
and a sim-time profiler, behind one switch: the ``OBS`` singleton.  See
DESIGN.md section 6 for the span model and the zero-perturbation rule.

Only leaf modules are imported here (the exporters and report renderers in
``repro.obs.export`` / ``repro.obs.report`` import ``repro.sim.metrics``
and are pulled in on demand), so hot-path modules can import ``OBS``
without dragging in anything heavy or cyclic.
"""

from repro.obs.plane import OBS, ObsPlane
from repro.obs.profiler import SimProfiler
from repro.obs.recorder import FlightRecorder, FlightRecorderHub
from repro.sim.sketch import QuantileSketch
from repro.obs.span import Span, Tracer

__all__ = [
    "OBS",
    "ObsPlane",
    "Span",
    "Tracer",
    "QuantileSketch",
    "FlightRecorder",
    "FlightRecorderHub",
    "SimProfiler",
]
