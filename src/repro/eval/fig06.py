"""Figure 6: time for Maestro to generate a parallel implementation.

The paper reports minutes per NF on their machine, dominated by Z3's key
search (the Policer — whose key must cancel the port bits forced in by the
NIC — takes longest).  Our pipeline takes milliseconds.  Among the analysis stages the *relative* cost structure is
preserved: NFs needing cancellation-heavy or cross-port symmetric keys
spend the most time in RS3.  The whole run is not RS3-dominated, because
the GF(2) key search is cheap next to Z3 (DESIGN.md §2); generating the
parallel NF (the ``code_generator`` series) is now the largest stage.
Averaged over 10 runs, like the paper.
"""

from __future__ import annotations

import numpy as np

from repro.core import Maestro
from repro.eval.runner import Experiment, Series
from repro.nf.nfs import ALL_NFS

__all__ = ["run"]

N_RUNS = 10


def run(fast: bool = False) -> Experiment:
    n_runs = 3 if fast else N_RUNS
    names = list(ALL_NFS)
    experiment = Experiment(
        name="fig6",
        title="Time to generate parallel implementations",
        x_label="nf",
        x_values=names,
        y_label="seconds (mean over runs)",
    )
    totals = np.zeros((n_runs, len(names)))
    rs3_times = np.zeros((n_runs, len(names)))
    codegen_times = np.zeros((n_runs, len(names)))
    for run_index in range(n_runs):
        for col, name in enumerate(names):
            maestro = Maestro(seed=run_index)
            result = maestro.analyze(ALL_NFS[name]())
            maestro.parallelize(ALL_NFS[name](), n_cores=16, result=result)
            totals[run_index, col] = result.total_time
            rs3_times[run_index, col] = result.timings.get("rs3", 0.0)
            codegen_times[run_index, col] = result.timings.get("code_generator", 0.0)
    experiment.add(
        Series(
            label="total",
            values=totals.mean(axis=0).tolist(),
            low=totals.min(axis=0).tolist(),
            high=totals.max(axis=0).tolist(),
        )
    )
    experiment.add(Series(label="rs3 share", values=rs3_times.mean(axis=0).tolist()))
    experiment.add(
        Series(label="code_generator", values=codegen_times.mean(axis=0).tolist())
    )
    experiment.notes.append(
        f"averaged over {n_runs} runs; the paper's absolute scale is "
        "minutes (KLEE+Z3), ours is milliseconds — stage shapes are "
        "comparable, not magnitudes"
    )
    return experiment


if __name__ == "__main__":
    print(run().render())
