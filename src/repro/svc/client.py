"""Remote access to a :class:`~repro.svc.service.Service`.

The wire is :mod:`multiprocessing.connection` — a ``Listener`` on the
server, a fresh authenticated ``Client`` connection per request on the
client. That keeps the protocol a function call over pickled dicts (no
sockets-and-framing code, no web framework, nothing to install) while
still crossing machine boundaries on a LAN if asked.

Protocol: the client sends one request dict ``{"op": ..., ...}`` and
reads responses until the server closes. Every response carries
``"ok"``; an error response carries ``"error"`` plus a ``"kind"`` the
client maps back to the service's exception types (``busy`` →
:class:`~repro.svc.jobs.AdmissionBusy` with its ``retry_after``, so
remote backpressure behaves exactly like local backpressure). The
``watch`` op is the one streaming case: progress dicts arrive until a
``{"done": ...}`` terminator.

Security model: loopback by default, HMAC challenge via the connection
``authkey`` (set ``REPRO_SVC_AUTHKEY`` to share a secret). This is a
lab-network tool, not an internet-facing one.
"""

from __future__ import annotations

import os
import threading
from multiprocessing.connection import Client as _Client
from multiprocessing.connection import Listener
from typing import Any, Dict, Iterator, Optional, Tuple

from .jobs import AdmissionBusy, JobCancelled, JobFailed, JobSpec
from .service import Service

__all__ = ["ServiceServer", "ServiceClient", "default_authkey",
           "parse_address"]

AUTHKEY_ENV = "REPRO_SVC_AUTHKEY"


def default_authkey() -> bytes:
    return os.environ.get(AUTHKEY_ENV, "repro-svc").encode()


def parse_address(text: str) -> Tuple[str, int]:
    """``host:port`` → address tuple (host defaults to loopback)."""
    host, _, port = text.rpartition(":")
    return (host or "127.0.0.1", int(port))


class ServiceServer:
    """Expose a service on a listening socket; one thread per client."""

    def __init__(self, service: Service, host: str = "127.0.0.1",
                 port: int = 0, authkey: Optional[bytes] = None) -> None:
        self.service = service
        self._listener = Listener((host, port), authkey=authkey
                                  or default_authkey())
        self._threads: list = []
        self._stop = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._listener.address  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServiceServer":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-svc-accept", daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(2.0)
            self._accept_thread = None

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn = self._listener.accept()
            except (OSError, EOFError, Exception):
                if self._stop.is_set():
                    return
                continue
            thread = threading.Thread(target=self._serve_one, args=(conn,),
                                      name="repro-svc-conn", daemon=True)
            thread.start()
            self._threads.append(thread)

    def _serve_one(self, conn) -> None:
        try:
            request = conn.recv()
            handler = getattr(self, f"_op_{request.get('op')}", None)
            if handler is None:
                conn.send({"ok": False, "kind": "protocol",
                           "error": f"unknown op {request.get('op')!r}"})
                return
            handler(conn, request)
        except (EOFError, BrokenPipeError, OSError):
            pass  # client went away mid-request
        except Exception as exc:  # pragma: no cover - defensive
            try:
                conn.send({"ok": False, "kind": "internal",
                           "error": f"{type(exc).__name__}: {exc}"})
            except (BrokenPipeError, OSError):
                pass
        finally:
            conn.close()

    # -- ops -----------------------------------------------------------
    def _op_submit(self, conn, request: dict) -> None:
        try:
            job = self.service.submit(request["spec"])
        except AdmissionBusy as busy:
            conn.send({"ok": False, "kind": "busy", "error": str(busy),
                       "retry_after": busy.retry_after,
                       "pending": busy.pending})
            return
        except ValueError as exc:
            conn.send({"ok": False, "kind": "invalid", "error": str(exc)})
            return
        response = {"ok": True, "job": job.status()}
        if request.get("wait"):
            job.wait(request.get("timeout"))
            response = {"ok": True, "job": job.status()}
        conn.send(response)

    def _find(self, conn, request: dict):
        job = self.service.jobs.get(request.get("job"))
        if job is None:
            conn.send({"ok": False, "kind": "unknown-job",
                       "error": f"no job {request.get('job')!r}"})
        return job

    def _op_status(self, conn, request: dict) -> None:
        job = self._find(conn, request)
        if job is not None:
            conn.send({"ok": True, "job": job.status()})

    def _op_result(self, conn, request: dict) -> None:
        job = self._find(conn, request)
        if job is None:
            return
        if not job.wait(request.get("timeout")):
            conn.send({"ok": False, "kind": "timeout",
                       "error": f"job {job.id} still {job.state.value}"})
            return
        try:
            payload = job.result(0)
        except (JobFailed, JobCancelled) as exc:
            kind = ("cancelled" if isinstance(exc, JobCancelled)
                    else "failed")
            conn.send({"ok": False, "kind": kind, "error": str(exc)})
            return
        conn.send({"ok": True, "job": job.status(), "result": payload})

    def _op_cancel(self, conn, request: dict) -> None:
        job = self._find(conn, request)
        if job is not None:
            conn.send({"ok": True, "cancelled": self.service.cancel(job),
                       "job": job.status()})

    def _op_metrics(self, conn, request: dict) -> None:
        response: Dict[str, Any] = {"ok": True,
                                    "metrics": self.service.metrics()}
        if request.get("prom"):
            response["prom"] = self.service.prometheus()
        conn.send(response)

    def _op_history(self, conn, request: dict) -> None:
        if self.service.ledger is None:
            conn.send({"ok": False, "kind": "invalid",
                       "error": "service has no run ledger (start it "
                                "with --ledger or REPRO_SVC_LEDGER)"})
            return
        limit = int(request.get("limit") or 0)
        conn.send({"ok": True, "entries": self.service.history(limit)})

    def _op_watch(self, conn, request: dict) -> None:
        """Stream progress payloads until the job finishes."""
        job = self._find(conn, request)
        if job is None:
            return
        conn.send({"ok": True, "job": job.status()})
        sub = self.service.subscribe(job)
        for payload in sub:
            conn.send({"ok": True, "progress": payload})
        conn.send({"ok": True, "done": job.status(),
                   "dropped": sub.dropped})


class ServiceClient:
    """Talk to a :class:`ServiceServer` (one connection per call)."""

    def __init__(self, address: Tuple[str, int],
                 authkey: Optional[bytes] = None) -> None:
        self.address = address
        self.authkey = authkey or default_authkey()

    def _call(self, request: dict) -> dict:
        conn = _Client(self.address, authkey=self.authkey)
        try:
            conn.send(request)
            response = conn.recv()
        finally:
            conn.close()
        return self._raise_for(response)

    @staticmethod
    def _raise_for(response: dict) -> dict:
        if response.get("ok"):
            return response
        kind = response.get("kind")
        if kind == "busy":
            raise AdmissionBusy(response["retry_after"], response["pending"])
        if kind == "failed":
            raise JobFailed(response["error"])
        if kind == "cancelled":
            raise JobCancelled(response["error"])
        if kind == "timeout":
            raise TimeoutError(response["error"])
        if kind == "invalid":
            raise ValueError(response["error"])
        raise RuntimeError(f"[{kind}] {response.get('error')}")

    # ------------------------------------------------------------------
    # api
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec, wait: bool = False,
               timeout: Optional[float] = None) -> Dict[str, Any]:
        """Submit a spec; returns the job status dict (its ``job`` field
        is the id every other call takes)."""
        return self._call({"op": "submit", "spec": spec, "wait": wait,
                           "timeout": timeout})["job"]

    def status(self, job_id: int) -> Dict[str, Any]:
        return self._call({"op": "status", "job": job_id})["job"]

    def result(self, job_id: int,
               timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block for the result payload; raises like ``Job.result``."""
        return self._call({"op": "result", "job": job_id,
                           "timeout": timeout})["result"]

    def cancel(self, job_id: int) -> bool:
        return self._call({"op": "cancel", "job": job_id})["cancelled"]

    def metrics(self, prom: bool = False) -> Dict[str, Any]:
        """The service metrics dict; with ``prom=True`` the response
        also carries the Prometheus exposition under ``"prom"``."""
        response = self._call({"op": "metrics", "prom": prom})
        if prom:
            return {"metrics": response["metrics"],
                    "prom": response["prom"]}
        return response["metrics"]

    def history(self, limit: int = 0) -> list:
        """The server's run-ledger entries (last ``limit`` if > 0)."""
        return self._call({"op": "history", "limit": limit})["entries"]

    def watch(self, job_id: int) -> Iterator[Dict[str, Any]]:
        """Yield progress dicts as the job runs; the final yield is
        ``{"done": <status>, "dropped": N}``."""
        conn = _Client(self.address, authkey=self.authkey)
        try:
            conn.send({"op": "watch", "job": job_id})
            self._raise_for(conn.recv())
            while True:
                response = self._raise_for(conn.recv())
                if "done" in response:
                    yield {"done": response["done"],
                           "dropped": response.get("dropped", 0)}
                    return
                yield response["progress"]
        finally:
            conn.close()
