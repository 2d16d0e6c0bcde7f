"""The network fabric connecting browser clients to simulated servers."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults.plan import DEFAULT_SLOW_SECONDS, NetworkFault
from repro.net.http import HttpRequest, HttpResponse
from repro.net.url import URL


@dataclass
class ClientIdentity:
    """The network-visible identity of a crawling machine.

    ``client_id`` models the source IP address: detection providers key
    their server-side re-identification state on it (the effect the paper
    controls for by using two separate residential IPs, Sec. 6.3).
    """

    client_id: str
    user_agent: str = ""


class Server:
    """Base class for simulated origin servers."""

    def handle(self, request: HttpRequest, client: ClientIdentity,
               network: "Network") -> HttpResponse:
        raise NotImplementedError


class FunctionServer(Server):
    """Adapts a plain callable into a :class:`Server`."""

    def __init__(self, fn: Callable[[HttpRequest, ClientIdentity, "Network"],
                                    HttpResponse]) -> None:
        self._fn = fn

    def handle(self, request: HttpRequest, client: ClientIdentity,
               network: "Network") -> HttpResponse:
        return self._fn(request, client, network)


@dataclass
class ExchangeRecord:
    """One request/response hop, as archived by the network."""

    request: HttpRequest
    response: HttpResponse


class Network:
    """Routes requests to servers registered by host or registrable domain.

    Also provides ``state``: a per-provider blackboard that lets detection
    services remember clients across sites and runs (cross-site
    re-identification, paper Sec. 4.1.3 and 6.3).
    """

    MAX_REDIRECTS = 10

    def __init__(self) -> None:
        self._hosts: Dict[str, Server] = {}
        self._domains: Dict[str, Server] = {}
        self.state: Dict[str, dict] = defaultdict(dict)
        self.log: List[ExchangeRecord] = []
        self.record_exchanges = False
        #: Optional :class:`repro.faults.FaultPlan` consulted per fetch
        #: (choke point ``network.fetch``): connection resets, slow
        #: responses, truncated bodies.
        self.fault_plan: Optional[Any] = None

    # ------------------------------------------------------------------
    def register_host(self, host: str, server: Server) -> None:
        self._hosts[host.lower()] = server

    def register_domain(self, domain: str, server: Server) -> None:
        """Register a server for an eTLD+1 and all its subdomains."""
        self._domains[domain.lower()] = server

    def resolve(self, host: str) -> Optional[Server]:
        host = host.lower()
        server = self._hosts.get(host)
        if server is not None:
            return server
        # Most-specific registered domain wins: a registration for
        # cdn.example.com shadows one for example.com on cdn traffic.
        labels = host.split(".")
        for index in range(len(labels)):
            candidate = ".".join(labels[index:])
            if candidate in self._domains:
                return self._domains[candidate]
        return None

    # Visit scoping: a live network keeps no per-site or per-visit
    # state; a replay transport (:class:`repro.bundles.ReplayNetwork`)
    # moves its archive cursor here.
    def begin_site(self, site: str) -> None:
        """A job attempt for *site* starts."""

    def begin_visit(self, site: str, url: str) -> None:
        """A visit of *url*, part of *site*, starts."""

    def end_visit(self) -> None:
        """The current visit is over."""

    # ------------------------------------------------------------------
    def fetch(self, request: HttpRequest, client: ClientIdentity
              ) -> Tuple[HttpResponse, List[ExchangeRecord]]:
        """Dispatch *request*, following redirects.

        Returns the final response and the full hop chain (the browser's
        HTTP instrument records every hop).
        """
        truncate = False
        if self.fault_plan is not None:
            rule = self.fault_plan.check("network.fetch",
                                         url=str(request.url))
            if rule is not None:
                if rule.fault == "connection_reset":
                    raise NetworkFault(
                        f"connection reset by peer: {request.url}")
                if rule.fault == "slow_response":
                    self.fault_plan.burn(
                        rule.seconds or DEFAULT_SLOW_SECONDS)
                elif rule.fault == "truncated_body":
                    truncate = True
        hops: List[ExchangeRecord] = []
        current = request
        for _ in range(self.MAX_REDIRECTS):
            server = self.resolve(current.url.host)
            if server is None:
                response = HttpResponse.not_found()
            else:
                response = server.handle(current, client, self)
            if truncate and not response.is_redirect and response.body:
                # The corruption the paper warns about: half the body
                # arrives, nothing errors, and the archived content is
                # silently wrong.
                response = replace(
                    response, body=response.body[:len(response.body) // 2])
            record = ExchangeRecord(current, response)
            hops.append(record)
            if self.record_exchanges:
                self.log.append(record)
            if not response.is_redirect:
                return response, hops
            target = URL.parse(response.location, base=current.url)
            current = HttpRequest(
                url=target,
                resource_type=current.resource_type,
                method="GET",
                top_frame_url=current.top_frame_url,
                frame_url=current.frame_url,
                initiator_script=current.initiator_script,
            )
        response = HttpResponse(status=508, content_type="text/plain",
                                body="redirect loop")
        return response, hops
