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
net and C_d in the server net, each one activity pair.  And the points
of one curve (one architecture, conversation count and parameter set
at several compute times X) share both nets' structure: the client net
does not depend on X at all, and the server net only through the mean
of its ``serve`` pair, serve_base + X.  So :func:`iter_nonlocal_curve`
advances all the points of a curve in lockstep.  Each side's net is
built once per curve, at the first point's first iteration, and solved
through a :class:`repro.gtpn.sweep.SweepSolver`, which binds that
result and the side's re-timed pairs into a
:class:`~repro.gtpn.sweep.BoundPair`: the surrogate pair, and on the
server side the ``serve`` pair too.  Every round then hands each bound
pair the means of all points still iterating: it writes them into one
row of frequencies per point, re-times the skeleton for all rows in
one pass and solves them with one factorization of the block-diagonal
matrix of their chains, with the plan and closed-class count resolved
at binding.  No net is rebuilt, copied, re-validated or fingerprinted
and no store is consulted per round; the re-timed net is built once
per point, for the converged results :class:`NonlocalSolution`
returns.  Each point keeps its own S_d, damping step, history and stop
test, and leaves the batch when it converges, so every point's floats
are bit-identical to rebuilding both nets and calling
:func:`repro.gtpn.analyze` on every iteration of its own loop.
:func:`solve_nonlocal` is the curve of one point.

Each side-solve pays only for what the iteration reads: the re-time
evaluates ``P.data`` alone, the stationary solve reads it through the
skeleton's plan, and the throughput, arrival rate and population come
from the in-flight counts and the skeleton's float marking matrix.
No iteration builds its graph's CSR matrix, expected starts or
initial distribution (:class:`repro.gtpn.reachability.ReachabilityGraph`
materializes them on first read).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro import obs
from repro.errors import ConvergenceError
from repro.gtpn import AnalysisResult
from repro.gtpn.sweep import BoundPair, SkeletonMismatch, SweepSolver
from repro.models.nonlocal_client import (SERVER_DELAY_PAIR,
                                          build_nonlocal_client_net)
from repro.models.nonlocal_server import (CLIENT_DELAY_PAIR,
                                          NONLOCAL_SERVER_PARAMS, SERVE_PAIR,
                                          build_nonlocal_server_net,
                                          serve_mean, server_population)
from repro.models.params import (NONLOCAL_CLIENT_PARAMS, Architecture)

#: Relative S_d change below which the fixed point is converged.
DEFAULT_TOLERANCE = 1e-3

DEFAULT_MAX_ITERATIONS = 60

#: Weight of the new S_d estimate when it is blended with the old one.
DAMPING = 0.5

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


class _Side:
    """One side of a curve's fixed points: its net, built at the first
    solve, re-timed through its bound pairs for every point at every
    later one."""

    def __init__(self, pairs: tuple[str, ...], build):
        self.pairs = pairs
        self.build = build          # (point, surrogate mean) -> net
        self.solver = SweepSolver()
        self.bound: BoundPair | None = None

    def solve(self, points: list[int],
              means: list[tuple[float, ...]]) -> list[AnalysisResult]:
        """This side's results for *points*, each with the bound pairs
        at its row of *means* (the surrogate mean first).

        Builds the net on the first call, and again when a pair was
        built at one tick and so has no loop transition to re-time.
        """
        if self.bound is not None:
            try:
                return self.bound.solve(means)
            except SkeletonMismatch:
                pass
        first = self.solver.analyze(self.build(points[0], means[0][0]))
        self.bound = self.solver.bind_pair(first, *self.pairs)
        if len(points) == 1:
            return [first]
        return [first, *self.solve(points[1:], means[1:])]

    def final(self, result: AnalysisResult,
              means: tuple[float, ...]) -> AnalysisResult:
        """*result*, one of this side's last solves, with the net it
        solved."""
        return self.bound.retimed(result, means)


def solve_nonlocal(architecture: Architecture, conversations: int,
                   compute_time: float = 0.0, *,
                   tolerance: float = DEFAULT_TOLERANCE,
                   max_iterations: int = DEFAULT_MAX_ITERATIONS,
                   hosts: int = 1,
                   client_params=None,
                   server_params=None) -> NonlocalSolution:
    """Fixed-point solution of the non-local conversation model.

    The curve of one point (:func:`iter_nonlocal_curve`).
    ``hosts`` sets the host count per node (the published curves use
    one; the thesis's own validation model used two).
    ``client_params`` / ``server_params`` override the activity means
    of the two split nets together (the
    :mod:`repro.models.syncmodel` seam); defaults are the committed
    tables for *architecture*.
    """
    ((_, solution),) = iter_nonlocal_curve(
        architecture, conversations, [compute_time], tolerance=tolerance,
        max_iterations=max_iterations, hosts=hosts,
        client_params=client_params, server_params=server_params)
    return solution


def iter_nonlocal_curve(architecture: Architecture, conversations: int,
                        compute_times, *,
                        tolerance: float = DEFAULT_TOLERANCE,
                        max_iterations: int = DEFAULT_MAX_ITERATIONS,
                        hosts: int = 1,
                        client_params=None,
                        server_params=None,
                        ) -> Iterator[tuple[int, NonlocalSolution]]:
    """Fixed-point solutions of one curve, one per compute time, each
    yielded with its index as soon as it converges.

    Every point iterates in lockstep with the others (see the module
    docstring) and yields exactly what its own fixed point would.  A
    caller that keeps only part of a solution lets the rest go while
    the other points iterate on.  Successive S_d estimates blend as
    new = d*new + (1-d)*old with d = :data:`DAMPING`, which stabilizes
    the alternating client/server solve for heavily loaded models
    without changing the fixed point.  Keywords as for
    :func:`solve_nonlocal`; a point that fails raises
    :class:`~repro.errors.ConvergenceError` naming it.
    """
    if client_params is None:
        client_params = NONLOCAL_CLIENT_PARAMS[architecture]
    if server_params is None:
        server_params = NONLOCAL_SERVER_PARAMS[architecture]
    s_c = server_params.receive_path
    dma_constant = server_params.dma_in + server_params.dma_out
    compute_times = list(compute_times)
    if not compute_times:
        return
    serve = [serve_mean(server_params, x) for x in compute_times]

    def point(i: int) -> str:
        return (f"{architecture}, {conversations} conversations, "
                f"X={compute_times[i]}")

    server_delay = [initial_server_delay(architecture, x)
                    for x in compute_times]
    histories: list[list[IterationStep]] = [[] for _ in compute_times]
    steps = [0.0] * len(compute_times)
    # the first round builds each side's net, later ones re-time its
    # skeleton from the new means alone (see module docstring)
    client = _Side((SERVER_DELAY_PAIR,),
                   lambda point, mean: build_nonlocal_client_net(
                       architecture, conversations, mean, hosts=hosts,
                       params=client_params))
    server = _Side((CLIENT_DELAY_PAIR, SERVE_PAIR),
                   lambda point, mean: build_nonlocal_server_net(
                       architecture, conversations, mean,
                       compute_times[point], hosts=hosts,
                       params=server_params))

    active = list(range(len(compute_times)))
    with obs.span("models.fixed_point", architecture=architecture.name,
                  conversations=conversations,
                  points=len(compute_times)) as span:
        for iteration in range(1, max_iterations + 1):
            client_means = [(max(server_delay[i], _MIN_DELAY),)
                            for i in active]
            client_results = client.solve(active, client_means)
            throughputs, cycles, client_delays = [], [], []
            for i, result in zip(active, client_results):
                throughput = result.throughput("lambda")
                if throughput <= 0:
                    raise ConvergenceError(
                        f"{point(i)}: client model produced zero throughput")
                cycle = conversations / throughput
                throughputs.append(throughput)
                cycles.append(cycle)
                client_delays.append(
                    max(cycle - server_delay[i] - s_c, _MIN_DELAY))

            server_means = [(client_delay, serve[i])
                            for i, client_delay in zip(active, client_delays)]
            server_results = server.solve(active, server_means)
            still = []
            for j, (i, result) in enumerate(zip(active, server_results)):
                arrival_rate = result.resource_usage("lambda_in")
                if arrival_rate <= 0:
                    raise ConvergenceError(
                        f"{point(i)}: server model produced zero arrivals")
                population = server_population(result)
                new_server_delay = population / arrival_rate + dma_constant
                histories[i].append(IterationStep(
                    server_delay=server_delay[i], throughput=throughputs[j],
                    client_cycle=cycles[j], client_delay=client_delays[j],
                    arrival_rate=arrival_rate, population=population,
                    new_server_delay=new_server_delay))

                step = abs(new_server_delay - server_delay[i])
                steps[i] = step / max(server_delay[i], 1.0)
                if step <= tolerance * max(server_delay[i], 1.0):
                    yield i, NonlocalSolution(
                        architecture=architecture,
                        conversations=conversations,
                        compute_time=compute_times[i],
                        throughput=throughputs[j],
                        server_delay=new_server_delay,
                        client_delay=client_delays[j],
                        iterations=iteration,
                        client_result=client.final(client_results[j],
                                                   client_means[j]),
                        server_result=server.final(result, server_means[j]),
                        history=histories[i])
                else:
                    server_delay[i] = (DAMPING * new_server_delay
                                       + (1.0 - DAMPING) * server_delay[i])
                    still.append(i)
            active = still
            # drop this round's results before the next round evaluates
            # its own: a round holds one batch of chains, not two
            del client_results, server_results, result
            span.set(rounds=iteration,
                     iterations=[len(history) for history in histories],
                     sd_step=list(steps))
            if not active:
                return

    last = histories[active[0]][-1]
    raise ConvergenceError(
        f"{point(active[0])}: S_d did not converge in {max_iterations} "
        f"iterations (last {last.new_server_delay:.1f} vs "
        f"{last.server_delay:.1f})")
