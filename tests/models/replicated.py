"""Replicated-conversation local nets: a test oracle and a large input.

The chapter-6 local models (:mod:`repro.models.local`) pool the n
conversations as indistinguishable tokens in shared ``Clients`` /
``Servers`` places, a counter abstraction of the system.  The builder
here writes the same workload out per conversation: every conversation
owns a private copy of the client/server chain, all of them sharing
the Host (and MP) resource places.  The two forms describe the same
system, so their throughputs agree (``test_replicated.py``); the
replicated net's reachable space grows like the product of the
per-conversation chains, which makes it a large input for engine
tests.
"""

from __future__ import annotations

from repro.errors import ModelError
from repro.gtpn import Net, activity_pair
from repro.models.params import LOCAL_PARAMS, Architecture


def build_replicated_local_net(architecture: Architecture,
                               conversations: int,
                               compute_time: float = 0.0,
                               hosts: int = 1) -> Net:
    """The local-conversation net with per-conversation subnets.

    Same parameters and semantics as :func:`repro.models.local.
    build_local_net`, but each conversation runs in its own replica of
    the activity chain (places suffixed ``#c``), sharing the Host and —
    for architectures II-IV — the MP.
    """
    if conversations < 1:
        raise ModelError("need at least one conversation")
    if compute_time < 0:
        raise ModelError("compute time must be non-negative")
    if hosts < 1:
        raise ModelError("need at least one host")
    params = LOCAL_PARAMS[architecture]
    uni = architecture is Architecture.I
    kind = "arch1" if uni else f"arch{architecture.name}"
    net = Net(f"{kind}-replicated-n{conversations}-h{hosts}")
    host = net.place("Host", tokens=hosts)
    mp = None if uni else net.place("MP", tokens=1)
    for c in range(conversations):
        if uni:
            _uniprocessor_replica(net, params, c, compute_time, host)
        else:
            _coprocessor_replica(net, params, c, compute_time, host, mp)
    return net


def _uniprocessor_replica(net: Net, params, c: int,
                          compute_time: float, host) -> None:
    client = net.place(f"Client#{c}", tokens=1)
    server = net.place(f"Server#{c}", tokens=1)
    sent = net.place(f"Sent#{c}")
    posted = net.place(f"Posted#{c}")
    activity_pair(net, f"client#{c}", params.client_step,
                  inputs=[client], outputs=[sent], holds=[host])
    activity_pair(net, f"server#{c}", params.server_step,
                  inputs=[server], outputs=[posted], holds=[host])
    rendezvous = params.match + compute_time + params.serve_base
    activity_pair(net, f"rendezvous#{c}", rendezvous,
                  inputs=[sent, posted], outputs=[client, server],
                  holds=[host], resource="lambda")


def _coprocessor_replica(net: Net, params, c: int,
                         compute_time: float, host, mp) -> None:
    client = net.place(f"Client#{c}", tokens=1)
    server = net.place(f"Server#{c}", tokens=1)
    send_req = net.place(f"SendReq#{c}")
    msg_queued = net.place(f"MsgQueued#{c}")
    rcv_req = net.place(f"RcvReq#{c}")
    rcv_posted = net.place(f"RcvPosted#{c}")
    server_ready = net.place(f"ServerReady#{c}")
    reply_req = net.place(f"ReplyReq#{c}")
    activity_pair(net, f"send#{c}", params.client_step,
                  inputs=[client], outputs=[send_req], holds=[host])
    activity_pair(net, f"process_send#{c}", params.process_send,
                  inputs=[send_req], outputs=[msg_queued], holds=[mp])
    activity_pair(net, f"receive#{c}", params.server_step,
                  inputs=[server], outputs=[rcv_req], holds=[host])
    activity_pair(net, f"process_receive#{c}", params.process_receive,
                  inputs=[rcv_req], outputs=[rcv_posted], holds=[mp])
    activity_pair(net, f"match#{c}", params.match,
                  inputs=[msg_queued, rcv_posted],
                  outputs=[server_ready], holds=[mp])
    activity_pair(net, f"serve#{c}", params.serve_base + compute_time,
                  inputs=[server_ready], outputs=[reply_req],
                  holds=[host])
    activity_pair(net, f"process_reply#{c}", params.process_reply,
                  inputs=[reply_req], outputs=[client, server],
                  holds=[mp], resource="lambda")
