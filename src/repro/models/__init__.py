"""GTPN models of the four node architectures (chapter 6).

The package builds and solves the thesis's performance models:

* :func:`build_local_net` — local conversations (Figures 6.9/6.12),
* :func:`build_nonlocal_client_net` / :func:`build_nonlocal_server_net`
  — the split non-local models (Figures 6.10-6.11/6.13-6.14),
* :func:`solve_nonlocal` — the iterative surrogate-delay fixed point,
* :func:`solve` / :func:`offered_load_table` — the headline API behind
  every Figure 6.17-6.23 curve and Tables 6.24/6.25.
"""

from repro.models.ablations import (BusSpeedPoint, MpSpeedPoint,
                                    derive_arch3_round_trip,
                                    mp_speed_sensitivity,
                                    smart_bus_primitive_costs,
                                    smart_bus_sensitivity)
from repro.models.contention import (arch1_client_contention,
                                     build_contention_net,
                                     contention_completion_times)
from repro.models.extension import (DedicationComparison,
                                    HostScalingPoint,
                                    build_symmetric_net,
                                    compare_dedication,
                                    dedication_crossover_lock_overhead,
                                    host_scaling, mp_saturation_bound)
from repro.models.iterate import (IterationStep, NonlocalSolution,
                                  initial_server_delay, solve_nonlocal)
from repro.models.local import build_local_net
from repro.models.nonlocal_client import (build_nonlocal_client_net,
                                          client_params)
from repro.models.nonlocal_server import (build_nonlocal_server_net,
                                          server_params,
                                          server_population)
from repro.models.params import (ACTION_TABLES, ActionRow, Architecture,
                                 Mode, action_table, round_trip_sum)
from repro.models.solve import (ThroughputResult, communication_time,
                                offered_load, offered_load_table, solve,
                                solve_at_offered_load, solve_grid,
                                solve_offered_load_grid,
                                server_time_for_offered_load,
                                throughput_vs_offered_load)

__all__ = [
    "ACTION_TABLES",
    "ActionRow",
    "Architecture",
    "BusSpeedPoint",
    "DedicationComparison",
    "HostScalingPoint",
    "IterationStep",
    "Mode",
    "MpSpeedPoint",
    "NonlocalSolution",
    "ThroughputResult",
    "action_table",
    "arch1_client_contention",
    "build_contention_net",
    "build_local_net",
    "build_nonlocal_client_net",
    "build_nonlocal_server_net",
    "build_symmetric_net",
    "client_params",
    "communication_time",
    "compare_dedication",
    "contention_completion_times",
    "dedication_crossover_lock_overhead",
    "derive_arch3_round_trip",
    "host_scaling",
    "initial_server_delay",
    "mp_saturation_bound",
    "mp_speed_sensitivity",
    "offered_load",
    "offered_load_table",
    "round_trip_sum",
    "server_params",
    "server_population",
    "server_time_for_offered_load",
    "smart_bus_primitive_costs",
    "smart_bus_sensitivity",
    "solve",
    "solve_at_offered_load",
    "solve_grid",
    "solve_nonlocal",
    "solve_offered_load_grid",
    "throughput_vs_offered_load",
]
