"""Tests for the :mod:`repro.api` runtime facade."""

import pytest

from repro.api import (
    BACKEND_CHOICES,
    Runtime,
    SwitchlessConfig,
    ZcConfig,
    make_backend,
    normalize_backend,
)
from repro.core.backend import ZcSwitchlessBackend
from repro.faults import FaultPlan, FaultSpec, activate_plan
from repro.sgx.backend import RegularBackend
from repro.switchless.backend import IntelSwitchlessBackend
from repro.telemetry import TelemetrySession

#: A plan whose fault applies to every backend family (EPC pressure
#: inflates transition costs; it needs no worker pool).
PRESSURE = FaultPlan(
    name="pressure",
    seed=7,
    faults=(FaultSpec(kind="epc-pressure", at_ms=0.01, duration_ms=0.05, factor=2.0),),
)


def ocall_program(enclave, repeats=4):
    def program():
        results = []
        for _ in range(repeats):
            results.append((yield from enclave.ocall("fopen", "/dev/null", "w")))
        return results

    return program()


class TestNormalize:
    def test_canonical_names_pass_through(self):
        for name in BACKEND_CHOICES:
            assert normalize_backend(name) == name

    @pytest.mark.parametrize(
        "alias, kind",
        [
            ("no_sl", "baseline"),
            ("no-sl", "baseline"),
            ("regular", "baseline"),
            ("sdk", "intel"),
            ("intel-switchless", "intel"),
            ("zc-switchless", "zc"),
            ("  ZC  ", "zc"),
        ],
    )
    def test_aliases(self, alias, kind):
        assert normalize_backend(alias) == kind

    @pytest.mark.parametrize("bad", ["", "hw", "zcc", None, 3])
    def test_unknown_rejected(self, bad):
        with pytest.raises(ValueError, match="unknown backend"):
            normalize_backend(bad)


class TestMakeBackend:
    def test_kinds(self):
        assert isinstance(make_backend("zc"), ZcSwitchlessBackend)
        assert isinstance(make_backend("intel"), IntelSwitchlessBackend)
        assert isinstance(make_backend("baseline"), RegularBackend)

    def test_configs_forwarded(self):
        zc = make_backend("zc", ZcConfig(max_workers=3))
        assert zc.config.max_workers == 3
        intel = make_backend("intel", SwitchlessConfig(num_uworkers=5))
        assert intel.config.num_uworkers == 5

    def test_config_family_enforced(self):
        with pytest.raises(TypeError, match="ZcConfig"):
            make_backend("zc", SwitchlessConfig())
        with pytest.raises(TypeError, match="SwitchlessConfig"):
            make_backend("intel", ZcConfig())
        with pytest.raises(TypeError, match="no config"):
            make_backend("baseline", ZcConfig())


class TestRuntimeMatrix:
    """Construction matrix: every backend × telemetry × faults."""

    @pytest.mark.parametrize("backend", BACKEND_CHOICES)
    @pytest.mark.parametrize("with_telemetry", [False, True])
    @pytest.mark.parametrize("with_faults", [False, True])
    def test_construct_run_close(self, backend, with_telemetry, with_faults):
        # The session and the plan are always active; the switches decide
        # whether the runtime attaches them.
        with TelemetrySession(), activate_plan(PRESSURE):
            with Runtime.create(
                backend=backend, telemetry=with_telemetry, faults=with_faults
            ) as rt:
                results = rt.run_program(ocall_program(rt.enclave))
                assert len(results) == 4
                if with_faults:
                    assert rt.faults is not None
                    assert rt.faults.plan is PRESSURE
                else:
                    assert rt.faults is None
                if with_telemetry:
                    assert rt.telemetry is not None
                    assert rt.telemetry.label == normalize_backend(backend)
                else:
                    assert rt.telemetry is None
            assert rt.closed

    def test_backend_kinds_installed(self):
        with Runtime.create(backend="baseline", telemetry=False) as rt:
            assert isinstance(rt.backend, RegularBackend)
        with Runtime.create(backend="zc", telemetry=False) as rt:
            assert isinstance(rt.backend, ZcSwitchlessBackend)
        with Runtime.create(
            backend="intel", config=SwitchlessConfig(num_uworkers=1), telemetry=False
        ) as rt:
            assert isinstance(rt.backend, IntelSwitchlessBackend)


class TestLifecycle:
    def test_close_is_idempotent(self):
        rt = Runtime.create(backend="zc", telemetry=False)
        rt.run_program(ocall_program(rt.enclave))
        rt.close()
        assert rt.closed
        rt.close()  # second close must be a no-op
        assert rt.closed

    def test_context_manager_closes(self):
        with Runtime.create(backend="intel", telemetry=False) as rt:
            pass
        assert rt.closed
        rt.close()

    def test_files_created(self):
        with Runtime.create(
            backend="baseline", telemetry=False, files={"/data": b"abc"}
        ) as rt:
            assert rt.fs.exists("/dev/null")
            assert rt.fs.exists("/dev/zero")
            assert rt.fs.contents("/data") == b"abc"

    def test_shared_kernel_not_drained_by_shard(self):
        """A runtime on a borrowed kernel must not drain it on close."""
        owner = Runtime.create(backend="baseline", telemetry=False)
        shard = Runtime.create(
            backend="zc", kernel=owner.kernel, telemetry=False, name="shard"
        )
        assert not shard.owns_kernel
        shard.run_program(ocall_program(shard.enclave))
        shard.close()
        owner.close()

    def test_shared_kernel_runtime_never_attaches(self):
        """Only the kernel's owner attaches the ambient session and plan."""
        with TelemetrySession() as session, activate_plan(PRESSURE):
            with Runtime.create(backend="baseline") as owner:
                shard = Runtime.create(backend="zc", kernel=owner.kernel, name="shard")
                assert shard.telemetry is None and shard.faults is None
                shard.close()
            assert owner.telemetry is not None and owner.faults is not None
        assert [capture.label for capture in session.captures] == ["baseline"]

    def test_cpu_usage_requires_start(self):
        with Runtime.create(backend="baseline", telemetry=False) as rt:
            with pytest.raises(RuntimeError):
                rt.cpu_usage_pct()
            rt.start_measuring()
            rt.run_program(ocall_program(rt.enclave))
            assert rt.cpu_usage_pct() >= 0.0
