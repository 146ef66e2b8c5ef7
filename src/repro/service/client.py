"""Synchronous client for the aging-analysis query service.

A thin blocking wrapper over one TCP connection speaking the
newline-delimited JSON protocol (:mod:`repro.service.protocol`).  This is
what the runner's ``query`` subcommand and the test suite use; an asyncio
client is trivial to write against the same protocol when a caller needs
one.
"""

from __future__ import annotations

import socket
from typing import Any, Callable, Mapping

from repro.service.protocol import ProtocolError, decode, encode


class ServiceError(RuntimeError):
    """A terminal ``rejected`` / ``error`` event; carries the event dict."""

    def __init__(self, event: Mapping[str, Any]) -> None:
        reason = event.get("reason") or event.get("message") or "service error"
        code = event.get("code")
        super().__init__(f"{reason}" + (f" (code {code})" if code else ""))
        self.event = dict(event)
        self.code = code


class ServiceClient:
    """One blocking connection to a running service."""

    def __init__(
        self, host: str, port: int, *, timeout: "float | None" = None
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    # ------------------------------------------------------------------ core
    def send(self, message: Mapping[str, Any]) -> None:
        self._file.write(encode(message))
        self._file.flush()

    def read_event(self) -> dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return decode(line)

    # ------------------------------------------------------------------- ops
    def query(
        self,
        experiments: "list[str] | tuple[str, ...]",
        overrides: "Mapping[str, Any] | None" = None,
        *,
        on_event: "Callable[[dict[str, Any]], None] | None" = None,
        query_id: Any = None,
    ) -> dict[str, Any]:
        """Run one query; returns the terminal ``result`` event.

        ``on_event`` sees every event as it streams in (``accepted``,
        per-task progress, and the terminal one).  Raises
        :class:`ServiceError` on rejection or execution failure.
        """
        message: dict[str, Any] = {
            "op": "query",
            "experiments": list(experiments),
            "overrides": dict(overrides or {}),
        }
        if query_id is not None:
            message["id"] = query_id
        self.send(message)
        while True:
            event = self.read_event()
            if on_event is not None:
                on_event(event)
            kind = event.get("event")
            if kind == "result":
                return event
            if kind in ("rejected", "error"):
                raise ServiceError(event)

    def ping(self) -> dict[str, Any]:
        self.send({"op": "ping"})
        event = self.read_event()
        if event.get("event") != "pong":
            raise ProtocolError(f"expected pong, got {event!r}")
        return event

    def stats(self) -> dict[str, Any]:
        self.send({"op": "stats"})
        event = self.read_event()
        if event.get("event") != "stats":
            raise ProtocolError(f"expected stats, got {event!r}")
        return event

    def shutdown(self) -> dict[str, Any]:
        self.send({"op": "shutdown"})
        return self.read_event()

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
