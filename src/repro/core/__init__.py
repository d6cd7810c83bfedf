"""ZC-SWITCHLESS: configless, CPU-waste-minimising switchless calls.

This package is the paper's primary contribution (§IV):

- :mod:`repro.core.config` — runtime parameters (``Q = 10 ms``,
  ``µ = 1/100``, worker cap ``N/2``); note there is *no* list of
  switchless routines and *no* fixed worker count — that is the point.
- :mod:`repro.core.worker` — the worker state machine of Fig. 6
  (``UNUSED → RESERVED → PROCESSING → WAITING → UNUSED``, plus ``PAUSED``
  and ``EXIT``) with per-worker buffers.
- :mod:`repro.core.mempool` — preallocated untrusted memory pools,
  freed/reallocated via a regular ocall when full (§IV-B) — the source of
  the latency spikes visible in Fig. 8.
- :mod:`repro.core.scheduler` — the feedback-loop scheduler (§IV-A): each
  cycle runs a *configuration phase* of ``N/2 + 1`` micro-quanta trying
  every worker count ``i`` and measuring ``U_i = F_i · T_es + i · µ · Q``
  wasted cycles, then a *scheduling phase* of one quantum with the argmin.
- :mod:`repro.core.backend` — the call path: any ocall runs switchlessly
  if the caller finds an idle worker, otherwise it falls back to a regular
  ocall *immediately* (§IV-C) — no pause-loop, unlike the Intel SDK.

Installing :class:`ZcSwitchlessBackend` on an enclave also swaps the
enclave's marshalling ``memcpy`` for the paper's optimised ``rep movsb``
implementation (§IV-F), as the released system does.
"""

from repro.core.config import SchedulerPolicy, ZcConfig
from repro.core.ecalls import ZcEcallRuntime
from repro.core.mempool import MemoryPool
from repro.core.scheduler import ZcScheduler, wasted_cycles
from repro.core.stats import ZcStats
from repro.core.trustzone import trustzone_cost_model
from repro.core.worker import WorkerStatus, ZcWorker

__all__ = [
    "MemoryPool",
    "SchedulerPolicy",
    "WorkerStatus",
    "ZcConfig",
    "ZcEcallRuntime",
    "ZcScheduler",
    "ZcStats",
    "ZcWorker",
    "trustzone_cost_model",
    "wasted_cycles",
]
