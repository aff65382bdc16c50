"""A small stdlib HTTP client for the ``repro serve`` endpoints.

:class:`ServiceClient` wraps :mod:`http.client` — one connection per
request, matching the server's ``Connection: close`` discipline — and
speaks the same JSON bodies the server parses.  It is what the
end-to-end tests and ``examples/serving.py`` use; any HTTP client works
just as well (the payloads are plain ``tree_to_dict`` /
``library_to_dict`` JSON).

    from repro.service import ServiceClient

    client = ServiceClient(port=8080)
    answer = client.solve(tree, library, algorithm="fast")
    print(answer["slack_seconds"], answer["cached"])
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import ServiceError
from repro.library.library import BufferLibrary
from repro.tree.io import library_to_dict, tree_to_dict
from repro.tree.routing_tree import RoutingTree

_TreeSpec = Union[RoutingTree, Dict[str, Any]]
_LibrarySpec = Union[BufferLibrary, Dict[str, Any]]


def _net_spec(tree: _TreeSpec) -> Dict[str, Any]:
    return tree_to_dict(tree) if isinstance(tree, RoutingTree) else tree


def _library_spec(library: _LibrarySpec) -> Dict[str, Any]:
    if isinstance(library, BufferLibrary):
        return library_to_dict(library)
    return library


class ServiceClient:
    """Talk to a running :class:`~repro.service.server.BufferServer`.

    Args:
        host: Server host.
        port: Server port.
        timeout: Socket timeout in seconds per request.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8080,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def _request_text(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> tuple:
        """One request; returns ``(status, raw response text)``."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None if body is None else json.dumps(body)
            headers = {} if payload is None else {
                "Content-Type": "application/json"
            }
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            text = response.read().decode("utf-8")
        except OSError as exc:
            raise ServiceError(
                f"cannot reach repro server at "
                f"{self.host}:{self.port}: {exc}"
            ) from exc
        finally:
            connection.close()
        return response.status, text

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        status, text = self._request_text(method, path, body)
        try:
            answer = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"{method} {path}: server returned non-JSON "
                f"({status}): {text[:200]!r}"
            ) from exc
        if status != 200:
            detail = answer.get("error", text) if isinstance(answer, dict) else text
            raise ServiceError(
                f"{method} {path} failed ({status}): {detail}"
            )
        return answer

    def solve(
        self,
        tree: _TreeSpec,
        library: _LibrarySpec,
        algorithm: str = "fast",
        backend: str = "auto",
        options: Optional[Dict[str, Any]] = None,
        deadline_ms: Optional[float] = None,
        trace: bool = False,
    ) -> Dict[str, Any]:
        """``POST /solve`` one net; returns the answer object.

        The answer carries ``slack_seconds``, ``assignment`` (node id →
        buffer name, in *this* tree's ids), ``cached``, ``key`` and the
        original solve's ``stats``.  ``deadline_ms`` bounds the
        server-side solve; exceeding it fails with a 504.
        ``trace=True`` asks the server for a structured trace of this
        request: the answer gains a ``"trace"`` key holding a Chrome
        ``trace_event`` document (open it at https://ui.perfetto.dev).

        Raises:
            ServiceError: Transport failure or any non-200 response
                (the server's ``error`` detail is included).
        """
        body = {
            "net": _net_spec(tree),
            "library": _library_spec(library),
            "algorithm": algorithm,
            "backend": backend,
            "options": options or {},
        }
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        path = "/solve?trace=1" if trace else "/solve"
        return self._request("POST", path, body)

    def solve_batch(
        self,
        trees: Sequence[_TreeSpec],
        library: _LibrarySpec,
        algorithm: str = "fast",
        backend: str = "auto",
        options: Optional[Dict[str, Any]] = None,
        deadline_ms: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """``POST /batch`` many nets sharing one library; answers in order."""
        body = {
            "nets": [_net_spec(tree) for tree in trees],
            "library": _library_spec(library),
            "algorithm": algorithm,
            "backend": backend,
            "options": options or {},
        }
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        answer = self._request("POST", "/batch", body)
        return answer["results"]

    def healthz(self, deep: bool = False) -> Dict[str, Any]:
        """``GET /healthz``: liveness, version, uptime, worker count.

        ``deep=True`` additionally reports worker liveness, breaker
        states, admission pressure and cache pressure — and, like the
        shallow probe, fails with a 503 while the server is draining.
        """
        return self._request(
            "GET", "/healthz?deep=1" if deep else "/healthz"
        )

    def stats(self) -> Dict[str, Any]:
        """``GET /stats``: request/cache counters and pool inventory."""
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """``GET /metrics``: Prometheus text exposition, verbatim.

        The one endpoint that answers ``text/plain`` instead of JSON —
        the raw scrape body is returned as a string.
        """
        status, text = self._request_text("GET", "/metrics")
        if status != 200:
            raise ServiceError(f"GET /metrics failed ({status}): {text[:200]}")
        return text

    def create_session(
        self,
        tree: _TreeSpec,
        library: _LibrarySpec,
        algorithm: str = "fast",
        backend: str = "auto",
        options: Optional[Dict[str, Any]] = None,
    ) -> "ServiceSession":
        """``POST /session``: open a stateful incremental ECO session.

        The server keeps the net, its compiled schedule and its
        memoized subtree frontiers resident; use the returned
        :class:`ServiceSession` to apply edits and re-solve at
        dirty-path cost.  Sessions solve on the ``object`` store, so
        ``backend`` must be ``"auto"`` or ``"object"``.  Sessions expire
        after the server's idle TTL and are evicted least recently used
        — callers should :meth:`~ServiceSession.delete` when done.
        """
        answer = self._request("POST", "/session", {
            "net": _net_spec(tree),
            "library": _library_spec(library),
            "algorithm": algorithm,
            "backend": backend,
            "options": options or {},
        })
        return ServiceSession(self, answer)


def _edit_spec(edit: Any) -> Dict[str, Any]:
    if isinstance(edit, dict):
        return edit
    # Typed edits from repro.incremental.edits serialize themselves.
    from repro.incremental.edits import edit_to_dict

    return edit_to_dict(edit)


class ServiceSession:
    """A handle to one server-side incremental session.

    Obtained from :meth:`ServiceClient.create_session`.  Edits may be
    passed as plain JSON dicts (``{"op": "set_sink_rat", ...}``) or as
    typed :class:`repro.incremental.edits.Edit` objects; node ids are
    the *serialized* ids of the net the session was created from
    (``created`` labels returned by :meth:`edit` extend that
    namespace).

    Attributes:
        session_id: The server-assigned session id.
        info: The creation answer (``num_nodes``, ``algorithm``, ...).
    """

    def __init__(self, client: ServiceClient, info: Dict[str, Any]) -> None:
        self._client = client
        self.info = info
        self.session_id: str = info["session"]

    def edit(self, *edits: Any) -> Dict[str, Any]:
        """``POST /session/{id}/edit``: apply one or more edits.

        Returns ``{"applied", "created", "removed", "num_nodes"}``; no
        solve happens until :meth:`resolve`.
        """
        return self._client._request(
            "POST", f"/session/{self.session_id}/edit",
            {"edits": [_edit_spec(edit) for edit in edits]},
        )

    def resolve(self) -> Dict[str, Any]:
        """``POST /session/{id}/resolve``: incremental re-solve.

        The answer has the ``/solve`` shape plus an ``incremental``
        block (``executed_fraction``, ``spliced_subtrees``, ...).
        """
        return self._client._request(
            "POST", f"/session/{self.session_id}/resolve"
        )

    def delete(self) -> Dict[str, Any]:
        """``DELETE /session/{id}``: close the session server-side."""
        return self._client._request(
            "DELETE", f"/session/{self.session_id}"
        )

    def __repr__(self) -> str:
        return f"ServiceSession({self.session_id!r})"
