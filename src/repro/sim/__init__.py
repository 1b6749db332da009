"""Discrete-event simulation substrate (clock, queues, components, stats).

This is the reproduction's analogue of the paper's Verilator/TSIM
token-driven co-simulation layer: a single global clock, bounded
latency-insensitive message queues between modules, and activity-driven
clocked components.
"""

from .kernel import SimulationError, Simulator
from .queues import MessageQueue, QueueEmptyError, QueueFullError
from .component import Component
from .stats import Counter, Histogram, StatGroup, geomean

__all__ = [
    "Simulator",
    "SimulationError",
    "MessageQueue",
    "QueueFullError",
    "QueueEmptyError",
    "Component",
    "Counter",
    "Histogram",
    "StatGroup",
    "geomean",
]
