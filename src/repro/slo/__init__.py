"""Spans, SLO contracts and evidence packs for the serving layer.

Three pieces, one observability story (see the "Spans, SLOs, and
evidence packs" section of ``docs/observability.md``):

- :mod:`repro.slo.trace` — per-request span trees built from the
  router's trace boundaries (live or from the bus), with an exact
  root-equals-children conservation property and a tenant-lane
  Chrome-trace exporter;
- :mod:`repro.slo.contract` — per-tenant SLO contracts (tail-latency
  ceilings, throughput floors, shed-rate and recovery-deadline bounds)
  evaluated into hard (gating) vs diagnostic verdicts over a serve-bench
  artifact;
- :mod:`repro.slo.evidence` — evidence packs (``repro serve bench
  --evidence PATH``): a manifest of SHA-256 hashes over the run's
  artifacts that ``repro evidence verify`` re-checks byte-for-byte.
"""

from repro.slo.contract import (
    SEVERITY_CHOICES,
    SloContract,
    Verdict,
    contracts_to_document,
    evaluate_contracts,
    hard_breaches,
    load_contracts,
    render_verdicts,
    save_contracts,
    verdicts_summary,
)
from repro.slo.evidence import (
    build_evidence_pack,
    file_sha256,
    pack_tarball,
    verify_evidence_pack,
)
from repro.slo.trace import (
    SPANS_ARTIFACT,
    Span,
    SpanTree,
    build_span_tree,
    build_span_trees,
    reconcile_with_latency,
    span_conservation_errors,
    spans_from_events,
    tenant_lane_trace_events,
)

__all__ = [
    "SEVERITY_CHOICES",
    "SPANS_ARTIFACT",
    "SloContract",
    "Span",
    "SpanTree",
    "Verdict",
    "build_evidence_pack",
    "build_span_tree",
    "build_span_trees",
    "contracts_to_document",
    "evaluate_contracts",
    "file_sha256",
    "hard_breaches",
    "load_contracts",
    "pack_tarball",
    "reconcile_with_latency",
    "render_verdicts",
    "save_contracts",
    "span_conservation_errors",
    "spans_from_events",
    "tenant_lane_trace_events",
    "verdicts_summary",
    "verify_evidence_pack",
]
