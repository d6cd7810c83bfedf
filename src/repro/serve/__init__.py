"""Sharded multi-enclave serving on one simulated machine.

The paper evaluates ZC-SWITCHLESS one enclave at a time; this package
asks the deployment question that follows: what happens when *several*
enclaves, each with its own configless worker pool and scheduler, serve
one request stream on a shared machine?

- :mod:`repro.serve.budget` — a cross-enclave worker-budget arbiter: the
  per-shard schedulers keep their ``argmin U_i`` feedback loops, but
  their grants are clipped so the fleet never spins more switchless
  workers than a global core cap allows.
- :mod:`repro.serve.shard` — one shard: a :class:`repro.api.Runtime` on
  the shared kernel hosting one or more served apps behind a bounded
  request queue drained by server threads; the :class:`ServedApp`
  protocol is the adapter surface.
- :mod:`repro.serve.apps` — the served-app adapters (``kv``,
  ``session``, ``crypto``) binding in-enclave applications to the
  router's canonical op vocabulary.
- :mod:`repro.serve.router` — consistent-hash (rendezvous) or
  round-robin routing with shed/block admission control (weighted-fair
  across tenants when weights are set), shard quarantine on enclave loss
  and re-admission after recovery, and per-request span tracing
  (``serve.request.span``) consumed by :mod:`repro.slo`.
- :mod:`repro.serve.loadgen` — the one load generator: closed-loop
  clients, or an open loop over seeded Poisson arrivals or a committed
  scenario trace's events, optionally tagged with weighted tenant and
  app mixes.
- :mod:`repro.serve.bench` — the ``repro serve bench`` entry point:
  takes a declarative :class:`repro.api.BenchSpec`/:class:`repro.api
  .ServeSpec` (``Runtime.serve(spec)``), builds a cluster, drives it,
  and emits a stamped result artifact with per-tenant counters and
  (with contracts) SLO verdicts.  The elastic control plane over it
  lives in :mod:`repro.autoscale`.
"""

from repro.serve.apps import (
    APP_CHOICES,
    CryptoServedApp,
    KvServedApp,
    SessionServedApp,
    make_apps,
)
from repro.serve.bench import ServeCluster, build_cluster, run_bench
from repro.serve.budget import WorkerBudgetArbiter
from repro.serve.loadgen import KEYDIST_CHOICES, LoadGenerator
from repro.serve.router import (
    ADMISSION_CHOICES,
    POLICY_CHOICES,
    Request,
    Router,
    TenantStats,
)
from repro.serve.shard import EnclaveShard, ServedApp

__all__ = [
    "ADMISSION_CHOICES",
    "APP_CHOICES",
    "KEYDIST_CHOICES",
    "POLICY_CHOICES",
    "CryptoServedApp",
    "EnclaveShard",
    "KvServedApp",
    "LoadGenerator",
    "Request",
    "Router",
    "ServeCluster",
    "ServedApp",
    "SessionServedApp",
    "TenantStats",
    "WorkerBudgetArbiter",
    "build_cluster",
    "make_apps",
    "run_bench",
]
