"""Pluggable transport: where the sharded router's shard workers live.

A shard boundary is a *transport* decision: the
:class:`~repro.engine.sharded.ShardedExecutor` router talks to its shards
through channels, and the transport decides whether a shard is an object
in the calling thread or a worker process.  (``QueryExecutor.run`` drains
plain in-process :class:`~repro.engine.queues.SourceQueue` objects; the
transport plays no part in single-process execution.)

* :class:`Transport` — the abstraction.  ``launch`` starts shard workers
  and returns one :class:`ShardChannel` per shard for the router.
* :class:`LocalTransport` — the zero-overhead default: shard "workers"
  that are ordinary objects called synchronously.
* :class:`ProcessTransport` — shared-nothing ``multiprocessing`` workers
  (spawn context, so it is fork-safety- and Windows-clean), one duplex
  pipe per shard, with a reader thread per channel draining replies so a
  full pipe buffer can never deadlock the router against a worker that is
  itself blocked sending.

This is the **only** module in the project allowed to import
``multiprocessing`` or ``threading`` (lint rule RLB007): operators, plans
and service code stay transport-agnostic, which is what lets one worker
process rebuild and run any plan from its picklable logical form.

Channel protocol
----------------

``send`` ships one *message*: a list of router commands (see
``engine/sharded.py`` for the command grammar).  The worker answers every
message with exactly one reply message: the list of per-command replies.
``poll`` returns already-arrived reply messages without blocking;
``recv`` blocks for the next one.  The router counts outstanding messages
per channel, so "all replies in" is a local bookkeeping fact, not a
transport feature.
"""

from __future__ import annotations

import queue as _queue
import threading
from typing import Any, Dict, List, Optional


class TransportError(RuntimeError):
    """A shard worker died or a channel broke mid-conversation."""


class ShardChannel:
    """One duplex command/reply conversation with one shard worker."""

    def send(self, message: List[tuple]) -> None:
        """Ship one list of commands to the worker."""
        raise NotImplementedError

    def poll(self) -> List[List[tuple]]:
        """Return all reply messages that have already arrived (no block)."""
        raise NotImplementedError

    def recv(self, timeout: Optional[float] = None) -> List[tuple]:
        """Block for the next reply message.

        Raises :class:`TransportError` when the worker is gone or no reply
        arrives within ``timeout`` seconds.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Tear the conversation down; idempotent."""
        raise NotImplementedError


class Transport:
    """How the sharded router reaches its shard workers."""

    def launch(self, count: int, bootstrap: Dict[str, Any]) -> List[ShardChannel]:
        """Start ``count`` shard workers; return one channel per shard.

        ``bootstrap`` is a picklable description (logical query, builder
        configuration, batch size) from which each worker constructs its
        own executor — shared-nothing by construction.
        """
        raise NotImplementedError(f"{type(self).__name__} cannot launch shard workers")

    def shutdown(self) -> None:
        """Release transport-wide resources; idempotent."""


class LocalTransport(Transport):
    """In-process transport: synchronous calls, zero IPC, the default."""

    def launch(self, count: int, bootstrap: Dict[str, Any]) -> List[ShardChannel]:
        from .sharded import ShardServer

        return [
            _LocalChannel(ShardServer(bootstrap, index)) for index in range(count)
        ]


class _LocalChannel(ShardChannel):
    """Calls the shard server directly; replies are available immediately."""

    def __init__(self, server: Any) -> None:
        self._server = server
        self._replies: List[List[tuple]] = []
        self._closed = False

    def send(self, message: List[tuple]) -> None:
        if self._closed:
            raise TransportError("channel is closed")
        self._replies.append(self._server.execute(message))

    def poll(self) -> List[List[tuple]]:
        out, self._replies = self._replies, []
        return out

    def recv(self, timeout: Optional[float] = None) -> List[tuple]:
        if not self._replies:
            raise TransportError("no reply pending on a synchronous channel")
        return self._replies.pop(0)

    def close(self) -> None:
        self._closed = True


class ProcessTransport(Transport):
    """Shared-nothing worker processes behind duplex pipes (spawn-safe)."""

    def __init__(self, start_method: str = "spawn") -> None:
        self._start_method = start_method
        self._channels: List[_ProcessChannel] = []

    def launch(self, count: int, bootstrap: Dict[str, Any]) -> List[ShardChannel]:
        import multiprocessing

        context = multiprocessing.get_context(self._start_method)
        channels: List[ShardChannel] = []
        for index in range(count):
            parent_end, child_end = context.Pipe(duplex=True)
            process = context.Process(
                target=_shard_worker_main,
                args=(child_end, bootstrap, index),
                name=f"repro-shard-{index}",
                daemon=True,
            )
            process.start()
            child_end.close()
            channel = _ProcessChannel(parent_end, process)
            self._channels.append(channel)
            channels.append(channel)
        return channels

    def shutdown(self) -> None:
        for channel in self._channels:
            channel.close()
        self._channels = []


def _shard_worker_main(connection: Any, bootstrap: Dict[str, Any], index: int) -> None:
    """Worker process entry point: build the shard, serve commands.

    Module-level so the spawn start method can pickle it by reference;
    everything the worker needs arrives in the picklable ``bootstrap``.
    A ``None`` message (or a closed pipe) ends the loop.
    """
    from .sharded import ShardServer

    server = ShardServer(bootstrap, index)
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        connection.send(server.execute(message))
    try:
        connection.close()
    except OSError:
        pass


class _ProcessChannel(ShardChannel):
    """Pipe to a worker process, with a reader thread draining replies.

    The thread exists for deadlock-freedom, not parallelism: if the router
    kept writing while the worker blocked writing a large reply into a
    full pipe buffer, both sides would wedge.  Draining replies off-thread
    into an unbounded queue guarantees the worker's writes always
    complete.
    """

    def __init__(self, connection: Any, process: Any) -> None:
        self._connection = connection
        self._process = process
        self._replies: "_queue.SimpleQueue[List[tuple]]" = _queue.SimpleQueue()
        self._closed = False
        self._reader = threading.Thread(
            target=self._drain, name=f"{process.name}-reader", daemon=True
        )
        self._reader.start()

    def _drain(self) -> None:
        try:
            while True:
                self._replies.put(self._connection.recv())
        except (EOFError, OSError):
            pass

    def send(self, message: List[tuple]) -> None:
        if self._closed:
            raise TransportError("channel is closed")
        try:
            self._connection.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise TransportError(
                f"shard worker {self._process.name} is gone: {exc}"
            ) from exc

    def poll(self) -> List[List[tuple]]:
        out: List[List[tuple]] = []
        while True:
            try:
                out.append(self._replies.get_nowait())
            except _queue.Empty:
                return out

    def recv(self, timeout: Optional[float] = None) -> List[tuple]:
        try:
            return self._replies.get(timeout=timeout)
        except _queue.Empty:
            alive = self._process.is_alive()
            raise TransportError(
                f"no reply from {self._process.name} within {timeout}s "
                f"(worker {'alive' if alive else 'dead'})"
            ) from None

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._connection.send(None)
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout=10)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5)
        try:
            self._connection.close()
        except OSError:
            pass
