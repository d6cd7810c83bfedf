"""The named scenario catalog.

Each entry is a :class:`repro.scenarios.generate.ScenarioSpec` whose
generated trace is committed under ``traces/`` and whose replay result
is pinned by a baseline under ``baselines/`` — ``repro diff`` gates the
whole library.  A baseline is the artifact of one serve bench on four
shards with a 16-worker budget::

    repro serve bench --scenario NAME --shards 4 --budget 16 \
        --out baselines/scenario-NAME.json

The specs are small on purpose: a committed eval trace is reviewed like
code, and CI replays one per run.

The five shapes cover the serve layer's interesting regimes:

========================  =====================================================
``steady-mixed``          Constant-rate multi-app mix (kv/session/crypto) with
                          a gold/bronze tenant split — the everyday workload.
``diurnal-kv``            A compressed day curve over a Zipf-skewed KV stream —
                          capacity breathing without overload.
``flash-crowd``           A 6× burst mid-run over kv+session — shed/admission
                          behaviour under a step overload.
``hotkey-shift``          Zipf mass rotates to new keys mid-run — cache- and
                          rendezvous-placement stress with constant total rate.
``multiapp-soak``         The longest mix: three apps, three tenants, Zipf keys
                          — the catch-all soak the CI job replays sliced.
========================  =====================================================
"""

from __future__ import annotations

import os

from repro.scenarios.generate import ScenarioSpec

#: Where committed eval traces live, relative to the checkout root.
TRACE_DIR = "traces"

#: The checkout holding this ``repro`` package (``<checkout>/src/repro``):
#: committed traces and baselines resolve here, whatever the working
#: directory.
CHECKOUT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)

#: The scenario library, in catalog order.
CATALOG: tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        name="steady-mixed",
        seed=101,
        duration_s=0.25,
        rate_rps=4_000.0,
        arrival="steady",
        keyspace=256,
        keydist="uniform",
        apps=(("kv", 6.0), ("session", 3.0), ("crypto", 1.0)),
        tenants=(("bronze", 1.0), ("gold", 3.0)),
        description="Constant-rate kv/session/crypto mix, gold/bronze tenants.",
    ),
    ScenarioSpec(
        name="diurnal-kv",
        seed=202,
        duration_s=0.3,
        rate_rps=3_000.0,
        arrival="diurnal",
        diurnal_amplitude=0.6,
        keyspace=256,
        keydist="zipf",
        apps=(("kv", 1.0),),
        description="A compressed day curve over a Zipf-skewed KV stream.",
    ),
    ScenarioSpec(
        name="flash-crowd",
        seed=303,
        duration_s=0.24,
        rate_rps=2_000.0,
        arrival="flash",
        flash_at_s=0.12,
        flash_width_s=0.04,
        flash_factor=6.0,
        keyspace=256,
        keydist="uniform",
        apps=(("kv", 3.0), ("session", 1.0)),
        description="A 6x flash crowd mid-run over kv+session traffic.",
    ),
    ScenarioSpec(
        name="hotkey-shift",
        seed=404,
        duration_s=0.2,
        rate_rps=4_000.0,
        arrival="steady",
        keyspace=256,
        keydist="zipf",
        hot_shift_at_s=0.1,
        apps=(("kv", 1.0),),
        description="Zipf hot-key mass rotates by half the keyspace mid-run.",
    ),
    ScenarioSpec(
        name="multiapp-soak",
        seed=505,
        duration_s=0.3,
        rate_rps=3_000.0,
        arrival="steady",
        keyspace=256,
        keydist="zipf",
        apps=(("kv", 5.0), ("session", 4.0), ("crypto", 1.0)),
        tenants=(("bronze", 1.0), ("gold", 2.0), ("silver", 1.0)),
        description="Three apps, three tenants, Zipf keys — the CI soak.",
    ),
)

_BY_NAME = {spec.name: spec for spec in CATALOG}

#: Every catalog scenario name, in catalog order.
SCENARIO_NAMES = tuple(spec.name for spec in CATALOG)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a catalog scenario; unknown names list the choices."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choices: {', '.join(SCENARIO_NAMES)}"
        ) from None


def trace_path(name: str) -> str:
    """The committed trace file for scenario ``name``."""
    return os.path.join(CHECKOUT, TRACE_DIR, f"{name}.trace.jsonl")


def baseline_path(name: str) -> str:
    """The committed baseline snapshot for scenario ``name``."""
    return os.path.join(CHECKOUT, "baselines", f"scenario-{name}.json")
