"""Reimplementation of the Intel SGX SDK switchless-call mechanism.

This is the *baseline* the paper compares against (§II, §III).  Its three
defining properties — all faithfully reproduced — are exactly the ones the
paper criticises:

1. **Static selection** (§III-A): only ocalls listed in
   :class:`SwitchlessConfig.switchless_ocalls` (fixed at "build time") may
   run switchlessly; everything else always transitions.
2. **Static worker pool** (§III-B): ``num_uworkers`` untrusted worker
   threads are created at startup and kept for the process lifetime.
3. **Pause-loop parameterisation** (§III-C): a caller busy-waits up to
   ``retries_before_fallback`` pause instructions for a worker to pick its
   task up before falling back to a regular ocall, and an idle worker
   busy-waits ``retries_before_sleep`` pauses before going to sleep.  Both
   default to 20,000 retries ≈ 2.8 M cycles, the value the paper calls
   abnormal.
"""

from repro.switchless.config import SwitchlessConfig
from repro.switchless.hotcalls import HotCallsBackend, HotCallsConfig
from repro.switchless.taskpool import SwitchlessTask, TaskPool

__all__ = [
    "HotCallsBackend",
    "HotCallsConfig",
    "SwitchlessConfig",
    "SwitchlessTask",
    "TaskPool",
]
