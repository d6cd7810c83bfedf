"""Tests for the cycle-attribution ledger."""

import hashlib
import json

import pytest

from repro.api import BenchSpec, ServeSpec
from repro.regress import attach_auditor
from repro.serve.bench import run_bench
from repro.sim import Kernel, MachineSpec
from repro.sim.instructions import Compute, Spin
from repro.telemetry import CycleLedger, TelemetrySession, classify
from repro.telemetry.ledger import (
    APP,
    BUSY_CATEGORIES,
    CALLER_SPIN,
    CATEGORIES,
    HOST_EXEC,
    MARSHAL,
    RUNTIME,
    SCHED,
    TRANSITION,
    WORKER_SPIN,
)


class TestClassify:
    def test_transitions(self):
        assert classify("app", "compute", "eexit") == TRANSITION
        assert classify("app", "compute", "eenter") == TRANSITION
        assert classify("app", "compute", "ecall-enter") == TRANSITION

    def test_marshalling(self):
        assert classify("app", "compute", "marshal-in") == MARSHAL
        assert classify("app", "compute", "ocall-setup") == MARSHAL

    def test_host_prefix(self):
        assert classify("app", "compute", "host-fwrite") == HOST_EXEC
        assert classify("zc-worker", "compute", "host-fread") == HOST_EXEC

    def test_spins_split_by_thread_kind(self):
        assert classify("app", "spin", "sl-wait-pickup") == CALLER_SPIN
        assert classify("intel-worker", "spin", "worker-idle-spin") == WORKER_SPIN
        assert classify("zc-worker", "spin", "zc-idle") == WORKER_SPIN

    def test_scheduler_threads_always_sched(self):
        assert classify("zc-scheduler", "compute", "zc-sched-decide") == SCHED
        assert classify("monitor", "compute", None) == SCHED

    def test_runtime_plumbing(self):
        assert classify("app", "compute", "zc-dispatch") == RUNTIME
        assert classify("intel-worker", "compute", "worker-pickup") == RUNTIME

    def test_untagged_compute_is_app(self):
        assert classify("app", "compute", None) == APP
        assert classify("app", "compute", "kissdb-hash") == APP


class TestCycleLedger:
    def test_charges_accumulate_per_key(self):
        ledger = CycleLedger()
        ledger.charge("app", "compute", "eexit", 10.0, 10.0)
        ledger.charge("app", "compute", "eexit", 5.0, 3.1)
        ledger.charge("app", "spin", None, 7.0, 7.0)
        cells = ledger.cells()
        assert cells[("app", "compute", "eexit")] == (15.0, 13.1)
        assert ledger.total_wall_cycles() == pytest.approx(22.0)
        wall = ledger.wall_by_category()
        assert wall[TRANSITION] == pytest.approx(15.0)
        assert wall[CALLER_SPIN] == pytest.approx(7.0)
        work = ledger.work_by_category()
        assert work[TRANSITION] == pytest.approx(13.1)

    def test_all_categories_present(self):
        assert set(CycleLedger().wall_by_category()) == set(BUSY_CATEGORIES)

    def test_kernel_snapshot_balances(self):
        kernel = Kernel(MachineSpec(n_cores=1, smt=2))
        kernel.ledger = ledger = CycleLedger()

        def busy():
            yield Compute(1_000.0, tag="eexit")
            yield Compute(2_000.0)

        def spinner():
            yield Spin(kernel.event("never"), 500.0, tag="sl-wait-pickup")

        kernel.spawn(busy(), name="a")
        kernel.spawn(spinner(), name="b")
        kernel.run()
        snap = ledger.snapshot(kernel)
        snap.assert_balanced()
        assert snap.wall_by_category[TRANSITION] > 0
        assert snap.wall_by_category[CALLER_SPIN] > 0
        # Wall occupancy + idle == capacity, exactly.
        assert snap.conservation_error() == pytest.approx(0.0, abs=1e-6)

    def test_smt_wall_vs_work(self):
        # Two siblings both busy: wall cycles exceed nominal (work) cycles.
        spec = MachineSpec(n_cores=1, smt=2, smt_factor=0.5)
        kernel = Kernel(spec)
        kernel.ledger = ledger = CycleLedger()

        def worker():
            yield Compute(1_000.0, tag="eexit")

        kernel.spawn(worker(), name="a")
        kernel.spawn(worker(), name="b")
        kernel.run()
        snap = ledger.snapshot(kernel)
        snap.assert_balanced()
        assert snap.work_by_category[TRANSITION] == pytest.approx(2_000.0)
        assert snap.wall_by_category[TRANSITION] == pytest.approx(4_000.0)

    def test_unbalanced_snapshot_raises(self):
        kernel = Kernel(MachineSpec(n_cores=1, smt=1))

        def busy():
            yield Compute(1_000.0)

        kernel.spawn(busy(), name="a")
        kernel.run()
        # Ledger attached only after the run: it saw no charges.
        late = CycleLedger()
        snap = late.snapshot(kernel)
        with pytest.raises(AssertionError, match="does not balance"):
            snap.assert_balanced()


class TestFoldOrder:
    """Snapshots fold per-thread cells in spawn order, whichever threads
    the kernel still keeps, so every ledger float stays put."""

    #: SHA-256 of the JSON list of the final snapshot's wall floats (every
    #: category) then work floats (busy categories), pinned when the
    #: kernel still kept every thread it ever spawned.  Folding the
    #: threads in reverse spawn order moves it.
    PINNED = "4b14fb9772dd3f3192f22363656538e7611481d76c89b301adfc8b3a4325595e"

    def test_open_loop_snapshot_floats_are_pinned(self):
        spec = BenchSpec(
            serve=ServeSpec(shards=2, backend="zc"), rate=4_000.0, seconds=0.3, seed=3
        )
        auditors = []
        # The live auditor snapshots the ledger once per scheduler quantum,
        # so finished request threads are folded and released mid-run too.
        with TelemetrySession(
            on_attach=lambda capture: auditors.append(attach_auditor(capture))
        ) as session:
            result = run_bench(spec, telemetry=True)
        for auditor in auditors:
            auditor.finish()
        assert result["totals"]["issued"] >= 1_000
        assert [auditor.ok for auditor in auditors] == [True]
        snapshot = session.captures[0].snapshot
        floats = [snapshot.wall_by_category[c] for c in CATEGORIES] + [
            snapshot.work_by_category[c] for c in BUSY_CATEGORIES
        ]
        digest = hashlib.sha256(json.dumps(floats).encode()).hexdigest()
        assert digest == self.PINNED
