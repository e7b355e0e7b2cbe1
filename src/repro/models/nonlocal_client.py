"""GTPN models of the client node for non-local conversations.

Reproduces Figures 6.10 (architecture I) and 6.13 (architectures
II-IV) with the transition attributes of Tables 6.7 / 6.12 / 6.17 /
6.22.  The server's round trip is collapsed into a surrogate delay
``server_delay`` (S_d) refined by the iterative solution of
section 6.6.3.

Network-interrupt priority is modelled exactly as in the thesis: the
activities executing on the interrupt processor (host for architecture
I, MP otherwise) are inhibited — a declared gate sets their frequencies
to zero — whenever an interrupt is pending (``NetIntr`` marked) or
being serviced (the cleanup pair firing), and the reply DMA cannot
start the next packet until the previous interrupt is fielded.
"""

from __future__ import annotations

from repro.errors import ModelError
from repro.gtpn import Gate, Net, activity_pair
from repro.models.params import (NONLOCAL_CLIENT_PARAMS, Architecture,
                                 NonlocalClientParams)

#: Activity pair carrying the surrogate server delay S_d.
SERVER_DELAY_PAIR = "server_delay"


def build_nonlocal_client_net(architecture: Architecture,
                              conversations: int,
                              server_delay: float,
                              hosts: int = 1,
                              params: NonlocalClientParams | None = None,
                              ) -> Net:
    """The client-node net with surrogate server delay S_d (us).

    ``hosts`` > 1 models a multiprocessor node (the thesis's
    experimental 925 nodes had two hosts; its Figure 6.15 validation
    model "had two tokens" in the Host places).  ``params`` overrides
    the Table 6.7/6.12/6.17/6.22 activity means (the
    :mod:`repro.models.syncmodel` seam).
    """
    if conversations < 1:
        raise ModelError("need at least one conversation")
    if server_delay < 1.0:
        raise ModelError("server delay must be at least one microsecond")
    if hosts < 1:
        raise ModelError("need at least one host")
    if params is None:
        params = NONLOCAL_CLIENT_PARAMS[architecture]
    net = Net(f"arch{architecture.name}-nonlocal-client-"
              f"n{conversations}-h{hosts}")

    clients = net.place("Clients", tokens=conversations)
    host = net.place("Host", tokens=hosts)
    io_out = net.place("IoOut", tokens=1)
    io_in = net.place("IoIn", tokens=1)
    net_intr = net.place("NetIntr")
    intr_svc = net.place("IntrSvc")
    dma_out_req = net.place("DmaOutReq")
    server_wait = net.place("ServerWait")
    reply_arrived = net.place("ReplyArrived")

    interrupt_processor = host if params.process_send is None else \
        net.place("MP", tokens=1)

    # no interrupt pending or in service: the thesis's
    # ``(NetIntr = 0) & !Tcleanup & !Tcleanup'`` expressions
    interrupt_free = Gate(inhibitors=[net_intr, intr_svc],
                          not_firing=["cleanup", "cleanup.loop"])

    if params.process_send is None:
        # Architecture I (Table 6.7): syscall send executes on the
        # host and is inhibited during interrupt processing.
        activity_pair(net, "send", params.send_step,
                      inputs=[clients], outputs=[dma_out_req],
                      holds=[host], gate=interrupt_free,
                      resource="lambda")
    else:
        # Architectures II-IV (Table 6.12 etc.): the host syscall is
        # never inhibited (interrupts go to the MP), the MP processing
        # is.
        send_req = net.place("SendReq")
        activity_pair(net, "send", params.send_step,
                      inputs=[clients], outputs=[send_req],
                      holds=[host], resource="lambda")
        activity_pair(net, "process_send", params.process_send,
                      inputs=[send_req], outputs=[dma_out_req],
                      holds=[interrupt_processor], gate=interrupt_free)

    # T6/T7 or T8/T9 — DMA of the request packet onto the wire
    activity_pair(net, "dma_out", params.dma_out,
                  inputs=[dma_out_req], outputs=[server_wait],
                  holds=[io_out])

    # T8/T9 or T10/T11 — surrogate server delay; every waiting client
    # progresses independently (infinite-server behaviour)
    activity_pair(net, SERVER_DELAY_PAIR, server_delay,
                  inputs=[server_wait], outputs=[reply_arrived])

    # T11/T12 or T13/T14 — DMA of the reply packet; the interface
    # cannot take the next packet until the previous interrupt has
    # been fielded
    activity_pair(net, "dma_in", params.dma_in,
                  inputs=[reply_arrived], outputs=[net_intr],
                  holds=[io_in], gate=interrupt_free)

    # interrupt dispatch: seizes the interrupt processor immediately
    net.transition("dispatch", delay=0,
                   inputs=[net_intr, interrupt_processor],
                   outputs=[intr_svc])

    # T4/T5 or T6/T7 — interrupt service: cleanup + restart client
    activity_pair(net, "cleanup", params.cleanup,
                  inputs=[intr_svc],
                  outputs=[clients, interrupt_processor])
    return net


def client_params(architecture: Architecture) -> NonlocalClientParams:
    """The Table 6.7/6.12/6.17/6.22 parameters for *architecture*."""
    return NONLOCAL_CLIENT_PARAMS[architecture]
