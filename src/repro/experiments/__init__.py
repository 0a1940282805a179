"""Shared experiment layer used by the benchmarks, examples and the CLI.

The layers, bottom up:

* :mod:`repro.experiments.harness` -- the fabric constructor
  (:func:`~repro.experiments.harness.build_fabric`) and fabric-state
  statistics,
* :mod:`repro.experiments.api` -- the single experiment entrypoint:
  :func:`~repro.experiments.api.run_experiment` over an
  :class:`~repro.experiments.api.ExperimentSpec`, returning a typed
  :class:`~repro.experiments.api.RunRecord`,
* :mod:`repro.experiments.scenarios` -- the declarative scenario registry
  (named workload x fabric configurations, with defaults and validation),
* :mod:`repro.experiments.sweep` -- the parallel sweep engine that crosses
  scenarios with parameter grids and persists JSON result rows.

:mod:`repro.experiments.figures` sits on top: the paper's figure rows are
thin queries over sweep results.  :mod:`repro.experiments.comparison` runs
one scenario under static / ECMP / adaptive control on identical flows.
"""

from repro.experiments.api import (
    ExperimentSpec,
    RunRecord,
    run_experiment,
)
from repro.experiments.comparison import COMPARISON_LABELS, adaptive_vs_static
from repro.experiments.harness import (
    build_fabric,
    fabric_state_row,
)
from repro.experiments.figures import (
    figure1_rows,
    figure2_rows,
    mapreduce_comparison_rows,
)
from repro.experiments.scenarios import (
    Scenario,
    ScenarioError,
    controller_config_from_params,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
    scenario_names,
)
from repro.experiments.sweep import (
    SweepRun,
    build_runs,
    execute_runs,
    expand_grid,
    filter_rows,
    load_rows,
    run_sweep,
    strip_timing,
    write_rows,
)

__all__ = [
    "ExperimentSpec",
    "RunRecord",
    "run_experiment",
    "COMPARISON_LABELS",
    "adaptive_vs_static",
    "build_fabric",
    "fabric_state_row",
    "figure1_rows",
    "figure2_rows",
    "mapreduce_comparison_rows",
    "Scenario",
    "ScenarioError",
    "controller_config_from_params",
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    "run_scenario",
    "scenario_names",
    "SweepRun",
    "build_runs",
    "execute_runs",
    "expand_grid",
    "filter_rows",
    "load_rows",
    "run_sweep",
    "strip_timing",
    "write_rows",
]
