"""Experiment harness and per-figure/table reproductions of the evaluation."""

from .analysis import (
    EXPECTED_ANALYZABLE,
    EXPECTED_LOCK_SKIPPABLE,
    analysis_gate_failures,
    baseline_density,
    run_analysis_corpus,
)
from .cost import AwsPricing, CostBreakdown, cost_table, infrastructure_overhead, monthly_costs
from .experiments import (
    EvalTrio,
    MAIN_APP_BUILDERS,
    ablation_cache_bootstrap,
    ablation_overlap,
    ablation_two_rtt,
    fig1_motivation,
    fig4_rows,
    fig5_rows,
    fig6_rows,
    run_eval_trio,
    sec56_replication,
    sweep_concurrency,
    sweep_offered_load,
    sweep_skew,
    table1_functions,
    table2_rtt,
)
from .harness import (
    PAPER_JITTER_SIGMA,
    drive_closed_loop,
    drive_open_loop,
    validation_success_rate,
)
from .mesh import (
    mesh_gate_failures,
    mesh_partition_plan,
    sweep_mesh,
)
from .overload import (
    run_overload_point,
    sweep_overload,
)
from .plots import bar_chart, grouped_bar_chart
from .routing import (
    routing_gate_failures,
    run_routing_point,
    run_routing_sweep,
    sparse_placement,
)
from .readscale import (
    readscale_gate_failures,
    sweep_readscale,
)
from .scalability import (
    sweep_scalability,
    uniform_counter_app,
)
from .report import (
    format_breakdown_report,
    format_table,
    print_breakdown_report,
    print_table,
)

__all__ = [
    "AwsPricing",
    "EXPECTED_ANALYZABLE",
    "EXPECTED_LOCK_SKIPPABLE",
    "analysis_gate_failures",
    "baseline_density",
    "run_analysis_corpus",
    "CostBreakdown",
    "EvalTrio",
    "MAIN_APP_BUILDERS",
    "PAPER_JITTER_SIGMA",
    "ablation_cache_bootstrap",
    "ablation_overlap",
    "ablation_two_rtt",
    "bar_chart",
    "cost_table",
    "drive_closed_loop",
    "drive_open_loop",
    "grouped_bar_chart",
    "fig1_motivation",
    "fig4_rows",
    "fig5_rows",
    "fig6_rows",
    "format_table",
    "infrastructure_overhead",
    "mesh_gate_failures",
    "mesh_partition_plan",
    "monthly_costs",
    "print_table",
    "routing_gate_failures",
    "run_routing_point",
    "run_routing_sweep",
    "sparse_placement",
    "readscale_gate_failures",
    "run_eval_trio",
    "run_overload_point",
    "sec56_replication",
    "sweep_concurrency",
    "sweep_mesh",
    "sweep_offered_load",
    "sweep_overload",
    "sweep_scalability",
    "sweep_skew",
    "table1_functions",
    "table2_rtt",
    "uniform_counter_app",
    "validation_success_rate",
]
