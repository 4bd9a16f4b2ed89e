"""Experiment modules — one per paper table/figure. Importing this
package registers all of them with the harness."""

from repro.bench.experiments import (  # noqa: F401
    ablation_bpart,
    ablation_system,
    churn,
    connectivity,
    fig03_ratios,
    fig04_loads,
    fig05_cuts_messages,
    fig06_skew,
    fig08_weighted,
    fig10_bias,
    fig11_fairness,
    fault_recovery,
    fig12_iteration_times,
    fig13_waiting,
    fig14_apps,
    fig15_hash,
    multilevel_cmp,
    scaling,
    serving_availability,
    serving_slo,
    table2_overhead,
    table3_cuts,
)
