"""The experiment harness: the paper's figures and claims, regenerated.

F1–F3 walk through the paper's three figures, one module each with
``run(quick=False) -> ExperimentResult``.  E1–E13 are the sweeps behind
its claims: rows of one table, :data:`repro.experiments.sweeps.SWEEPS`,
that one runner serves.  Each result carries the table the experiment
regenerates (see DESIGN.md §4 for the experiment index and
EXPERIMENTS.md for recorded outcomes).  ``quick=True`` shrinks
durations/replications for CI and tests.

Run them all from the command line::

    python -m repro.experiments.cli --list
    python -m repro.experiments.cli e1 e2 --quick
"""

from repro.experiments.base import ExperimentResult
from repro.experiments.sweeps import SWEEPS

__all__ = ["ExperimentResult"]

#: The figure walkthroughs by module path (the CLI imports them lazily).
FIGURES = {
    "f1": "repro.experiments.f1_graph_example",
    "f2": "repro.experiments.f2_walkthrough",
    "f3": "repro.experiments.f3_allocation_algorithm",
}

#: Every experiment id in run order: the figures, then the sweep table.
EXPERIMENTS = [*FIGURES, *SWEEPS]
