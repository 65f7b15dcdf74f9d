"""Language-neutral subprocess protocol for external detectors.

The harness spawns one process per task and exchanges newline-delimited
JSON over stdio (UTF-8, one object per line)::

    -> {"type": "hello", "protocol": 1}
    <- {"type": "hello", "name": str, "protocol": 1}
    -> {"type": "fit", "series": [{"id": str, "values": [f64, ...]}, ...]}
    <- {"type": "fit_done"}
    -> {"type": "score", "id": str, "context": [f64, ...], "values": [f64, ...]}
    <- {"type": "scores", "id": str, "scores": [f64, ...]}
    -> {"type": "shutdown"}          (process exits 0)

The detector may reply {"type": "error", "message": str} at any point.
Exactly one fit precedes all score exchanges per process lifetime. Stderr
is never parsed as protocol data; it is drained into the failure log.
Every failure mode (malformed reply, missed deadline, bad exit status,
wrong score length) raises a distinct exception which the bench layer
records as a task failure without stopping other tasks.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import ClassVar, Mapping, Sequence

import numpy as np

from .core import TimeSeries, validate_scores
from .errors import (
    ConfigError,
    ExternalTimeout,
    NonZeroExit,
    ProtocolError,
    TsadError,
    require_name,
    require_number,
)
from .schemas import Task

PROTOCOL_VERSION = 1

# The longest reply line read, in bytes: a fixed allowance plus, per score
# asked for, the longest number json reads as a finite float (a 309-digit
# integer) with its sign and ", " separator.
REPLY_BYTES = 64 * 1024
SCORE_BYTES = 309 + 3

# Stderr lines kept per detector process (the newest), each cut at
# STDERR_LINE_BYTES; older ones are dropped so a chatty detector cannot
# grow the harness's memory.
STDERR_KEEP = 200
STDERR_LINE_BYTES = 1024


@dataclass(frozen=True)
class ExternalDetectorSpec:
    kind: ClassVar[str] = "external"
    command: tuple[str, ...]
    name: str = "external"
    startup_timeout: float = 30.0
    message_timeout: float = 300.0

    def __post_init__(self):
        command = self.command
        if (
            not isinstance(command, (list, tuple))
            or not command
            or not all(isinstance(c, str) for c in command)
        ):
            raise ConfigError(
                f"external detector command must be a list of strings, got {command!r}"
            )
        object.__setattr__(self, "command", tuple(command))
        require_name("external detector name", self.name)
        require_number("startup_timeout", self.startup_timeout)
        require_number("message_timeout", self.message_timeout)
        if self.startup_timeout <= 0 or self.message_timeout <= 0:
            raise ConfigError("timeouts must be positive")


class _Process:
    """Owns the subprocess, which leads a process group of its own, and its
    stderr reader thread. Requests and replies move on the calling thread,
    through the pipes' raw descriptors only: their buffers are never used."""

    def __init__(self, command: Sequence[str]):
        try:
            self.proc = subprocess.Popen(
                list(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                start_new_session=True,
            )
        except OSError as exc:
            raise ProtocolError(f"could not spawn {command!r}: {exc}") from exc
        os.set_blocking(self.proc.stdin.fileno(), False)
        self._unread = bytearray()  # stdout bytes past the last reply line
        self.stderr_lines: deque[str] = deque(maxlen=STDERR_KEEP)
        self._stderr_thread = threading.Thread(target=self._pump_stderr, daemon=True)
        self._stderr_thread.start()

    def _pump_stderr(self):
        for line in iter(lambda: self.proc.stderr.readline(STDERR_LINE_BYTES), b""):
            self.stderr_lines.append(line.decode("utf-8", "replace").rstrip("\n"))

    def _ready(self, pipe, event: int, deadline: float) -> bool:
        """Whether pipe is ready for event, or hung up, before deadline."""
        poller = select.poll()
        poller.register(pipe, event)
        return bool(poller.poll(max(0.0, deadline - time.monotonic()) * 1000))

    def send(self, message: dict, timeout: float) -> None:
        """Write one message under the deadline of the reply it asks for, or
        raise ExternalTimeout if the detector has not taken it by then."""
        data = memoryview((json.dumps(message) + "\n").encode())
        deadline = time.monotonic() + timeout
        while data:
            if not self._ready(self.proc.stdin, select.POLLOUT, deadline):
                raise ExternalTimeout(f"detector did not read its input within {timeout:g}s")
            try:
                data = data[os.write(self.proc.stdin.fileno(), data):]
            except OSError as exc:
                raise ProtocolError(f"detector closed stdin pipe: {exc}") from exc

    def recv(self, timeout: float, scores: int = 0) -> dict:
        """The next reply, read within timeout seconds; its line may hold
        REPLY_BYTES plus SCORE_BYTES per score asked for."""
        limit = REPLY_BYTES + SCORE_BYTES * scores
        deadline = time.monotonic() + timeout
        end = self._unread.find(b"\n")
        while end < 0 and len(self._unread) <= limit:
            if not self._ready(self.proc.stdout, select.POLLIN, deadline):
                raise ExternalTimeout(f"no reply within {timeout:g}s")
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                code = self.proc.wait()
                if code != 0:
                    raise NonZeroExit(f"detector exited with status {code}")
                raise ProtocolError("detector closed stdout before replying")
            self._unread += chunk
            end = self._unread.find(b"\n", len(self._unread) - len(chunk))
        if not 0 <= end <= limit:
            raise ProtocolError(f"reply line longer than {limit} bytes")
        line = self._unread[:end]
        del self._unread[: end + 1]
        try:
            message = json.loads(line.decode())
        except ValueError as exc:  # not UTF-8, not JSON, or an int past int()'s digit limit
            raise ProtocolError(f"bad JSON from detector: {bytes(line)!r}") from exc
        if not isinstance(message, dict) or "type" not in message:
            raise ProtocolError(f"reply is not a typed object: {message!r}")
        if message["type"] == "error":
            raise ProtocolError(
                f"detector error: {message.get('message', '(no message)')}"
            )
        return message

    def shutdown(self, timeout: float) -> None:
        """Send shutdown and require a clean zero exit."""
        self.send({"type": "shutdown"}, timeout)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ExternalTimeout("detector did not exit after shutdown") from None
        if code != 0:
            raise NonZeroExit(f"detector exited with status {code}")

    def kill(self) -> None:
        self.reap()
        self.close()

    def reap(self) -> None:
        """Kill the process group unless the process has been waited for,
        and wait for it to exit. Once waited for, its pid may be reused, so
        the group is signalled only before."""
        if self.proc.returncode is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass

    def close(self) -> None:
        """Close the pipes; stderr lines not yet read are lost."""
        for stream in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            stream.close()

    def stderr_tail(self, limit: int = 5) -> str:
        self._stderr_thread.join(timeout=1.0)
        return " | ".join(list(self.stderr_lines)[-limit:])


def _expect(message: dict, expected_type: str) -> dict:
    if message["type"] != expected_type:
        raise ProtocolError(
            f"expected {expected_type!r} reply, got {message['type']!r}"
        )
    return message


def drive(
    spec: ExternalDetectorSpec,
    task: Task,
    series_by_id: Mapping[str, TimeSeries],
) -> list[tuple[str, np.ndarray]]:
    """Run one task through an external detector process.

    Fits once on the task's training pools, then scores every eval target
    (context = the series' history before its test region); returns each
    target's id with its scores as ``validate_scores`` returns them. The
    process is always reaped, successful or not; on failure the captured
    stderr tail is appended to the error for the run report's failure log.
    """
    proc = _Process(spec.command)
    try:
        return _exchange(spec, task, series_by_id, proc)
    except TsadError as exc:
        proc.reap()  # the pipes stay open until the stderr tail is read
        tail = proc.stderr_tail()
        if tail:
            exc.args = (f"{exc.args[0]} [stderr: {tail}]",)
        raise
    finally:
        proc.kill()


def _exchange(
    spec: ExternalDetectorSpec,
    task: Task,
    series_by_id: Mapping[str, TimeSeries],
    proc: _Process,
) -> list[tuple[str, np.ndarray]]:
    proc.send({"type": "hello", "protocol": PROTOCOL_VERSION}, spec.startup_timeout)
    hello = _expect(proc.recv(spec.startup_timeout), "hello")
    if hello.get("protocol") != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol {hello.get('protocol')!r}")

    pools = []
    for sid, (start, end) in task.train_refs:
        series = series_by_id[sid]
        pools.append({"id": sid, "values": series.values[start:end].tolist()})
    proc.send({"type": "fit", "series": pools}, spec.message_timeout)
    _expect(proc.recv(spec.message_timeout), "fit_done")

    results = []
    for sid, (start, end) in task.eval_refs:
        series = series_by_id[sid]
        proc.send(
            {
                "type": "score",
                "id": sid,
                "context": series.values[:start].tolist(),
                "values": series.values[start:end].tolist(),
            },
            spec.message_timeout,
        )
        reply = _expect(proc.recv(spec.message_timeout, end - start), "scores")
        if reply.get("id") != sid:
            raise ProtocolError(f"scores for {reply.get('id')!r}, expected {sid!r}")
        raw = reply.get("scores")
        # json.loads makes exact ints and floats; true and false are bools
        if not isinstance(raw, list) or not all(type(v) in (int, float) for v in raw):
            raise ProtocolError("scores must be a list of numbers")
        try:
            results.append((sid, validate_scores(series, raw)))
        except OverflowError as exc:  # an int past float's range
            raise ProtocolError(f"score out of float range: {exc}") from exc

    proc.shutdown(spec.message_timeout)
    return results
