"""Adaptive-versus-static comparison over one scenario.

The paper's claim is comparative: an adaptive fabric must beat the same
hardware left alone.  This module runs a registered scenario three ways on
*identical* flows (same derived seed, same flow ids, same failure plan),
all through the single experiment entrypoint
(:func:`repro.experiments.api.run_experiment`) with a different registered
controller per run:

* ``static``  -- the ``"static"`` controller: fixed shortest-path routing,
  no control;
* ``ecmp``    -- the ``"ecmp"`` controller: per-flow equal-cost multi-path
  hashing, the "software-only" answer to congestion;
* ``adaptive``-- the ``"loop"`` controller: the closed control loop with
  price-based rerouting and the grid-to-torus candidate.

``repro-fabric compare <scenario>`` prints the resulting table; the bundled
benchmark (``benchmarks/bench_adaptive_vs_static.py``) asserts the adaptive
run wins on mean FCT for the hotspot scenarios.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.experiments.api import RunRecord, run_experiment
from repro.experiments.scenarios import (
    Scenario,
    derive_run_seed,
    experiment_spec,
    get_scenario,
    resolve_params,
)

#: The comparison's run labels, in report order.
COMPARISON_LABELS = ("static", "ecmp", "adaptive")

#: Registered controller behind each comparison label.  The adaptive leg
#: is the closed control loop on *both* backends: the loop co-simulates
#: with whichever backend the scenario's ``backend`` parameter selects
#: (``tests/test_backend_fidelity.py`` pins how far the two backends'
#: loop-controlled headline numbers may diverge).
CONTROLLER_BY_LABEL = {"static": "static", "ecmp": "ecmp", "adaptive": "loop"}


def _result_row(label: str, record: RunRecord) -> Dict[str, object]:
    return {
        "label": label,
        "mean_fct": record.mean_fct,
        "p99_fct": record.p99_fct,
        "makespan": record.makespan,
        "straggler_ratio": record.straggler,
        "completion_fraction": record.metrics["completion_fraction"],
        "power_watts": record.power_watts,
        "reconfigurations": record.metrics["reconfigurations"],
    }


def adaptive_vs_static(
    scenario: "Scenario | str",
    overrides: Optional[Mapping[str, object]] = None,
    base_seed: int = 0,
) -> List[Dict[str, object]]:
    """Run *scenario* under static / ECMP / adaptive control, same flows.

    Parameters
    ----------
    scenario:
        Registered scenario (name or instance).  Its ``controller``
        parameter is ignored -- this function pins the controller per run.
    overrides:
        Parameter overrides, as for
        :func:`repro.experiments.scenarios.run_scenario`.
    base_seed:
        Seed the per-run workload seed is derived from.

    Returns one result row per label in :data:`COMPARISON_LABELS`.  Every
    run regenerates the flow list from the same derived seed with the flow
    id counter reset, so all three controllers serve bit-identical
    workloads (and identical failure plans, when the scenario declares
    one).  The ``backend``, ``allocator`` and ``engine`` parameters apply
    to all three legs; the controller-to-label mapping is the same on both
    backends (see :data:`CONTROLLER_BY_LABEL`).
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    merged = dict(overrides or {})
    merged["controller"] = "none"  # resolve/validate once, without a controller
    params = resolve_params(scenario, merged)
    seed = derive_run_seed(base_seed, scenario.name, params)

    rows: List[Dict[str, object]] = []
    for label in COMPARISON_LABELS:
        spec = experiment_spec(scenario, params, seed, CONTROLLER_BY_LABEL[label], label)
        rows.append(_result_row(label, run_experiment(spec)))
    return rows
