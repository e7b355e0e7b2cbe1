"""Iterative solution of the split non-local models (section 6.6.3).

The client and server nodes are modelled separately, coupled through
two surrogate delays:

* the client model embeds S_d, the mean server delay per conversation
  (including queueing at the server node), and
* the server model embeds C_d, the mean waiting time for client
  requests.

The combined system is solved by fixed-point iteration exactly as in
the thesis:

1. solve the client model with the current S_d -> throughput Lambda;
2. Little's result: per-client cycle time T = Clients / Lambda, so the
   client-side time is C_d' = T - S_d;
3. the client's absence overlaps the server's receive processing S_c,
   so the waiting time seen by the server is C_d = C_d' - S_c;
4. solve the server model with C_d -> arrival rate lambda and mean
   population N; Little again: S_d = N / lambda, plus the constant
   request/reply DMA times (section 6.6.4);
5. repeat until successive S_d values agree within tolerance.

Only the surrogate delays change between iterations: S_d in the client
net and C_d in the server net, each one activity pair.  So each side's
net is built once per fixed point, on the first iteration, and solved
through a :class:`repro.gtpn.sweep.SweepSolver`.  Every later iteration
hands the solver only the new surrogate mean
(:meth:`~repro.gtpn.sweep.SweepSolver.retime_pairs`), which re-times the
previous iteration's reachability skeleton straight from it: no net is
rebuilt, re-validated or fingerprinted.  Results are bit-identical to
rebuilding both nets and calling :func:`repro.gtpn.analyze` on every
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.errors import ConvergenceError
from repro.gtpn import AnalysisResult
from repro.gtpn.sweep import SkeletonMismatch, SweepSolver
from repro.models.nonlocal_client import (SERVER_DELAY_PAIR,
                                          build_nonlocal_client_net)
from repro.models.nonlocal_server import (CLIENT_DELAY_PAIR,
                                          NONLOCAL_SERVER_PARAMS,
                                          build_nonlocal_server_net,
                                          server_population)
from repro.models.params import (NONLOCAL_CLIENT_PARAMS, Architecture)

#: Relative S_d change below which the fixed point is converged.
DEFAULT_TOLERANCE = 1e-3

DEFAULT_MAX_ITERATIONS = 60

#: Floor keeping surrogate delays valid activity means (>= 1 tick).
_MIN_DELAY = 1.0


@dataclass
class IterationStep:
    """Bookkeeping for one round of the fixed point."""

    server_delay: float
    throughput: float
    client_cycle: float
    client_delay: float
    arrival_rate: float
    population: float
    new_server_delay: float


@dataclass
class NonlocalSolution:
    """Converged solution of the split non-local model."""

    architecture: Architecture
    conversations: int
    compute_time: float
    throughput: float            # round trips per microsecond (Lambda)
    server_delay: float          # S_d
    client_delay: float          # C_d
    iterations: int
    client_result: AnalysisResult
    server_result: AnalysisResult
    history: list[IterationStep] = field(default_factory=list)

    @property
    def round_trip_time(self) -> float:
        """Mean conversation cycle time per client (T = N / Lambda)."""
        return self.conversations / self.throughput


def initial_server_delay(architecture: Architecture,
                         compute_time: float) -> float:
    """Thesis starting point: server-side communication + compute time."""
    params = NONLOCAL_SERVER_PARAMS[architecture]
    return (params.dma_in + params.match + params.serve_base
            + compute_time + (params.process_reply or 0.0)
            + params.dma_out)


def _solve_side(solver: SweepSolver, previous: AnalysisResult | None,
                pair: str, mean: float, build) -> AnalysisResult:
    """Solve one side's net with its surrogate pair at *mean*.

    Re-times *previous*, this side's last result; builds the net on the
    first iteration, and when the pair was built at one tick and so has
    no loop transition to re-time.
    """
    if previous is not None:
        try:
            return solver.retime_pairs(previous, {pair: mean})
        except SkeletonMismatch:
            pass
    return solver.analyze(build(mean))


def solve_nonlocal(architecture: Architecture, conversations: int,
                   compute_time: float = 0.0, *,
                   tolerance: float = DEFAULT_TOLERANCE,
                   max_iterations: int = DEFAULT_MAX_ITERATIONS,
                   damping: float = 0.5,
                   hosts: int = 1,
                   client_params=None,
                   server_params=None) -> NonlocalSolution:
    """Fixed-point solution of the non-local conversation model.

    ``damping`` blends successive S_d estimates (new = d*new +
    (1-d)*old), which stabilizes the alternating client/server solve
    for heavily loaded models without changing the fixed point.
    ``hosts`` sets the host count per node (the published curves use
    one; the thesis's own validation model used two).
    ``client_params`` / ``server_params`` override the activity means
    of the two split nets together (the
    :mod:`repro.models.syncmodel` seam); defaults are the committed
    tables for *architecture*.
    """
    if client_params is None:
        client_params = NONLOCAL_CLIENT_PARAMS[architecture]
    if server_params is None:
        server_params = NONLOCAL_SERVER_PARAMS[architecture]
    s_c = server_params.receive_path
    dma_constant = server_params.dma_in + server_params.dma_out

    server_delay = initial_server_delay(architecture, compute_time)
    history: list[IterationStep] = []
    client_result = server_result = None
    # one solver per side: the first iteration builds the net, later
    # ones re-time its skeleton from the new surrogate mean alone (see
    # module docstring)
    client_solver = SweepSolver()
    server_solver = SweepSolver()

    def build_client(mean: float):
        return build_nonlocal_client_net(architecture, conversations,
                                         mean, hosts=hosts,
                                         params=client_params)

    def build_server(mean: float):
        return build_nonlocal_server_net(architecture, conversations,
                                         mean, compute_time, hosts=hosts,
                                         params=server_params)

    with obs.span("models.fixed_point", architecture=architecture.name,
                  conversations=conversations) as span:
        for iteration in range(1, max_iterations + 1):
            client_result = _solve_side(
                client_solver, client_result, SERVER_DELAY_PAIR,
                max(server_delay, _MIN_DELAY), build_client)
            throughput = client_result.throughput("lambda")
            if throughput <= 0:
                raise ConvergenceError(f"{architecture}: client model "
                                       "produced zero throughput")
            cycle = conversations / throughput
            client_delay = max(cycle - server_delay - s_c, _MIN_DELAY)

            server_result = _solve_side(
                server_solver, server_result, CLIENT_DELAY_PAIR,
                client_delay, build_server)
            arrival_rate = server_result.resource_usage("lambda_in")
            if arrival_rate <= 0:
                raise ConvergenceError(f"{architecture}: server model "
                                       "produced zero arrivals")
            population = server_population(server_result)
            new_server_delay = population / arrival_rate + dma_constant

            history.append(IterationStep(
                server_delay=server_delay, throughput=throughput,
                client_cycle=cycle, client_delay=client_delay,
                arrival_rate=arrival_rate, population=population,
                new_server_delay=new_server_delay))

            step = abs(new_server_delay - server_delay)
            span.set(iterations=iteration,
                     sd_step=step / max(server_delay, 1.0))
            if step <= tolerance * max(server_delay, 1.0):
                return NonlocalSolution(
                    architecture=architecture,
                    conversations=conversations,
                    compute_time=compute_time, throughput=throughput,
                    server_delay=new_server_delay,
                    client_delay=client_delay, iterations=iteration,
                    client_result=client_result,
                    server_result=server_result, history=history)
            server_delay = (damping * new_server_delay
                            + (1.0 - damping) * server_delay)

    raise ConvergenceError(
        f"{architecture}, {conversations} conversations, "
        f"X={compute_time}: S_d did not converge in {max_iterations} "
        f"iterations (last {history[-1].new_server_delay:.1f} vs "
        f"{history[-1].server_delay:.1f})")
