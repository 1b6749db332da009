"""Top-level X-Cache façade.

:class:`XCacheSystem` wires together everything a DSA (or a quickstart
user) needs: a simulator, a memory image, a DRAM model, and a programmed
controller. It also offers a small synchronous convenience layer
(`load`/`store` + `run`) so examples can exercise the cache without
writing an event-driven datapath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..mem.dram import DRAMConfig, DRAMModel
from ..mem.layout import MemoryImage
from ..obs import capture as obs_capture
from ..sim import Simulator
from .config import XCacheConfig
from .controller import Controller, MetaResponse
from .walker import CompiledWalker

__all__ = ["XCacheSystem"]

Tag = Tuple[int, ...]


class XCacheSystem:
    """A ready-to-run X-Cache instance over a DRAM-backed memory image.

    Typical use::

        system = XCacheSystem(config, program)
        ...lay out data structures in system.image...
        system.load((key,), walk_fields={"table": table_addr})
        responses = system.run()
    """

    def __init__(self, config: XCacheConfig, program: CompiledWalker,
                 image: Optional[MemoryImage] = None,
                 dram_config: DRAMConfig = DRAMConfig(),
                 store_merge: str = "fadd") -> None:
        self.sim = Simulator()
        self.image = image if image is not None else MemoryImage()
        self.dram = DRAMModel(self.sim, self.image, dram_config)
        self.controller = Controller(self.sim, config, program, self.dram,
                                     store_merge=store_merge)
        # the collector: with no handler registered (see on_response),
        # the controller appends every response here
        self.responses: List[MetaResponse] = []
        self.controller.set_response_handler(self.responses.append)
        # harness-level observation (--events/--perfetto/--metrics-summary):
        # systems built inside an active capture scope self-register
        active_capture = obs_capture.current_capture()
        if active_capture is not None:
            active_capture.attach(self.ensure_bus())

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def ensure_bus(self):
        """One shared event bus across controller, DRAM, and kernel.

        The controller's bus is authoritative (a direct
        ``controller.ensure_bus()`` may already have created it); DRAM and
        the simulation kernel are pointed at the same instance so one
        subscription sees the whole system.
        """
        bus = self.controller.ensure_bus()
        self.dram.bus = bus
        self.sim.bus = bus
        return bus

    def observe(self, processor):
        """Attach an event processor to the whole system; returns it.

        ::

            metrics = system.observe(MetricsProcessor())
            system.run()
            print(metrics.summary())
        """
        return self.ensure_bus().attach(processor)

    def on_response(self, handler: Callable[[MetaResponse], None]) -> None:
        """Register the callback fired on every meta response.

        The handler replaces the collector: the controller calls it
        directly and :attr:`responses` stays empty, so a response, its
        request message and its data are freed when the handler returns
        (unless the handler keeps them). Without a handler, every
        response is appended to :attr:`responses`.
        """
        self.controller.set_response_handler(handler)

    # ------------------------------------------------------------------
    # convenience request issue
    # ------------------------------------------------------------------
    def load(self, tag: Tag, walk_fields: Optional[Dict[str, int]] = None,
             preload: bool = False, take: bool = False,
             nowalk: bool = False):
        """Issue a meta load (see :meth:`Controller.meta_load`)."""
        return self.controller.meta_load(tag, walk_fields=walk_fields,
                                         preload=preload, take=take,
                                         nowalk=nowalk)

    def store(self, tag: Tag, payload_bits: int,
              walk_fields: Optional[Dict[str, int]] = None):
        """Issue a meta store (see :meth:`Controller.meta_store`)."""
        return self.controller.meta_store(tag, payload_bits,
                                          walk_fields=walk_fields)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[int] = None) -> List[MetaResponse]:
        """Run until the system drains; returns :attr:`responses`.

        That list holds every response so far only while no handler is
        registered with :meth:`on_response`; with one, it stays empty.
        """
        self.sim.run(until=until)
        self.controller.finalize()
        return self.responses

    @property
    def now(self) -> int:
        return self.sim.now

    def hit_rate(self) -> float:
        return self.controller.hit_rate()

    def summary(self) -> Dict[str, int]:
        """Key counters for quick inspection."""
        stats = self.controller.stats
        return {
            "cycles": self.sim.now,
            "meta_loads": stats.get("meta_loads"),
            "meta_stores": stats.get("meta_stores"),
            "hits": stats.get("hits") + stats.get("store_hits"),
            "misses": stats.get("misses"),
            "miss_merges": stats.get("miss_merges"),
            "walks_completed": stats.get("walks_completed"),
            "dram_reads": self.dram.stats.get("reads"),
            "dram_writes": self.dram.stats.get("writes"),
            "actions": stats.get("actions_total"),
        }
