"""Generalized Timed Petri Net modeling and analysis.

The GTPN package is the modeling substrate of the reproduction: nets
are built with :class:`Net`, solved exactly with :func:`analyze`
(reachability graph + embedded Markov chain) or estimated by Monte
Carlo with :func:`simulate`.

Quick example — an M/Geo/1-style cycle with mean service 10 ticks::

    from repro.gtpn import Net, activity_pair, analyze

    net = Net("cycle")
    ready = net.place("Ready", tokens=1)
    done = net.place("Done")
    activity_pair(net, "serve", 10.0, inputs=[ready], outputs=[done],
                  resource="lambda")
    net.transition("recycle", delay=1, inputs=[done], outputs=[ready])
    print(analyze(net).throughput())   # ~ 1/11 per tick
"""

from repro.gtpn.analysis import AnalysisResult, analyze
from repro.gtpn.approximations import (activity_pair, geometric_frequency,
                                       littles_law_population,
                                       littles_law_residence)
from repro.gtpn.markov import stationary_distribution
from repro.gtpn.net import Gate, Net, Place, Transition
from repro.gtpn.packed import (PackedLayout, PackedSkeleton, compile_packed,
                               packed_build, packed_retime)
from repro.gtpn.reachability import (ReachabilityGraph,
                                     build_reachability_graph)
from repro.gtpn.simulation import (ConfidenceResult, SimulationResult,
                                   simulate, simulate_with_confidence)
from repro.gtpn.state import State
from repro.gtpn.structure import (check_invariant, incidence_matrix,
                                  invariant_value, is_connected,
                                  place_invariants,
                                  structural_deadlock_free_bound)

__all__ = [
    "AnalysisResult",
    "Gate",
    "Net",
    "PackedLayout",
    "PackedSkeleton",
    "Place",
    "ReachabilityGraph",
    "SimulationResult",
    "State",
    "Transition",
    "activity_pair",
    "analyze",
    "ConfidenceResult",
    "build_reachability_graph",
    "compile_packed",
    "packed_build",
    "packed_retime",
    "check_invariant",
    "geometric_frequency",
    "incidence_matrix",
    "invariant_value",
    "is_connected",
    "littles_law_population",
    "littles_law_residence",
    "place_invariants",
    "simulate",
    "simulate_with_confidence",
    "stationary_distribution",
    "structural_deadlock_free_bound",
]
