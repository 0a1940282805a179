"""Baseline systems the adaptive fabric is compared against.

The static and ECMP baselines are registered controllers (``"static"`` and
``"ecmp"``, see :mod:`repro.core.controllers`), run through
:func:`repro.experiments.api.run_experiment` like every other scheme.  This
package holds the one baseline that is not a controller on the simulated
fabric:

* :mod:`repro.baselines.circuit` -- an idealised circuit-switched fabric
  (every flow gets a dedicated end-to-end circuit at NIC rate, paying only a
  setup delay), the optimistic bound the reconfigurable-optics literature
  compares against.
"""

from repro.baselines.circuit import OracleCircuitBaseline

__all__ = [
    "OracleCircuitBaseline",
]
