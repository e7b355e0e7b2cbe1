"""GTPN models of the server node for non-local conversations.

Reproduces Figures 6.11 (architecture I) and 6.14 (architectures
II-IV) with the transition attributes of Tables 6.8 / 6.13 / 6.18 /
6.23.  Client think time is collapsed into the surrogate delay
``client_delay`` (C_d); request arrival manifests as a network
interrupt whose match processing runs on the interrupt processor.

The net measures the two quantities the iterative solution needs:

* ``lambda_in`` — the arrival rate of client requests (exit rate of
  the client-wait pair), and
* ``population`` — the mean number of requests inside the service
  subsystem (pending interrupts + in-service match / serve /
  process-reply activities), via the extra ``occupancy`` resource.

``S_d = population / lambda_in`` plus the constant request/reply DMA
times (section 6.6.4) feeds back into the client model.
"""

from __future__ import annotations

from repro.errors import ModelError
from repro.gtpn import AnalysisResult, Gate, Net, activity_pair
from repro.models.params import (NONLOCAL_SERVER_PARAMS, Architecture,
                                 NonlocalServerParams)

#: Resource name measuring the in-service population.
OCCUPANCY = "population"

#: Activity pair carrying the surrogate client delay C_d.
CLIENT_DELAY_PAIR = "client_wait"


def build_nonlocal_server_net(architecture: Architecture,
                              conversations: int,
                              client_delay: float,
                              compute_time: float = 0.0,
                              hosts: int = 1,
                              params: NonlocalServerParams | None = None,
                              ) -> Net:
    """The server-node net with surrogate client delay C_d (us).

    ``hosts`` > 1 models a multiprocessor node (see
    :func:`repro.models.nonlocal_client.build_nonlocal_client_net`).
    ``params`` overrides the Table 6.8/6.13/6.18/6.23 activity means
    (the :mod:`repro.models.syncmodel` seam).
    """
    if conversations < 1:
        raise ModelError("need at least one conversation")
    if client_delay < 1.0:
        raise ModelError("client delay must be at least one microsecond")
    if compute_time < 0:
        raise ModelError("compute time must be non-negative")
    if hosts < 1:
        raise ModelError("need at least one host")
    if params is None:
        params = NONLOCAL_SERVER_PARAMS[architecture]
    net = Net(f"arch{architecture.name}-nonlocal-server-"
              f"n{conversations}-h{hosts}")

    servers = net.place("Servers", tokens=conversations)
    host = net.place("Host", tokens=hosts)
    net_intr = net.place("NetIntr")
    intr_svc = net.place("IntrSvc")
    client_wait = net.place("ClientWait")
    server_ready = net.place("ServerReady")

    uniprocessor = params.process_receive is None
    interrupt_processor = host if uniprocessor else \
        net.place("MP", tokens=1)

    # the thesis's ``(RequestService = 0) & !Tmatch & !Tmatch'``
    interrupt_free = Gate(inhibitors=[net_intr, intr_svc],
                          not_firing=["match", "match.loop"])

    if uniprocessor:
        # Architecture I (Table 6.8): receive on the host, inhibited
        # during interrupt processing.
        activity_pair(net, "receive", params.receive_step,
                      inputs=[servers], outputs=[client_wait],
                      holds=[host], gate=interrupt_free)
    else:
        rcv_req = net.place("RcvReq")
        activity_pair(net, "receive", params.receive_step,
                      inputs=[servers], outputs=[rcv_req], holds=[host])
        activity_pair(net, "process_receive", params.process_receive,
                      inputs=[rcv_req], outputs=[client_wait],
                      holds=[interrupt_processor], gate=interrupt_free)

    # T3/T4 or T2/T3 — surrogate client delay (infinite server); each
    # exit is one request arriving at this node.
    activity_pair(net, CLIENT_DELAY_PAIR, client_delay,
                  inputs=[client_wait], outputs=[net_intr],
                  resource="lambda_in")

    # interrupt dispatch, then match processing (T8/T9 or T7/T8)
    net.transition("dispatch", delay=0,
                   inputs=[net_intr, interrupt_processor],
                   outputs=[intr_svc])
    activity_pair(net, "match", params.match,
                  inputs=[intr_svc],
                  outputs=[server_ready, interrupt_processor],
                  occupancy=OCCUPANCY)

    if uniprocessor:
        # T11/T12 — compute + syscall reply on the host, inhibited by
        # interrupts; completes the round trip.
        activity_pair(net, "serve", params.serve_base + compute_time,
                      inputs=[server_ready], outputs=[servers],
                      holds=[host], gate=interrupt_free,
                      resource="lambda_out", occupancy=OCCUPANCY)
    else:
        reply_req = net.place("ReplyReq")
        # T9/T10 — restart server + compute + syscall reply (Host)
        activity_pair(net, "serve", params.serve_base + compute_time,
                      inputs=[server_ready], outputs=[reply_req],
                      holds=[host], occupancy=OCCUPANCY)
        # T11/T12 — process reply (MP), inhibited by interrupts
        activity_pair(net, "process_reply", params.process_reply,
                      inputs=[reply_req], outputs=[servers],
                      holds=[interrupt_processor], gate=interrupt_free,
                      resource="lambda_out", occupancy=OCCUPANCY)
    return net


def server_population(result: AnalysisResult) -> float:
    """Mean number of requests inside the service subsystem (N).

    Counts requests waiting as pending interrupts, dispatched but
    unprocessed, queued for the host, queued for the reply processing,
    and the in-flight occupancy of the service activities.
    """
    population = result.resource_usage(OCCUPANCY)
    for place in ("NetIntr", "IntrSvc", "ServerReady", "ReplyReq"):
        if result.net.has_place(place):    # arch I has no ReplyReq
            population += result.mean_tokens(place)
    return population


def server_params(architecture: Architecture) -> NonlocalServerParams:
    """The Table 6.8/6.13/6.18/6.23 parameters for *architecture*."""
    return NONLOCAL_SERVER_PARAMS[architecture]
