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
import queue
import subprocess
import threading
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

# Stderr lines kept per detector process (the newest); older ones are
# dropped so a chatty detector cannot grow the harness's memory.
STDERR_KEEP = 200


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
    """Owns the subprocess plus reader threads for stdout and stderr."""

    def __init__(self, command: Sequence[str]):
        try:
            self.proc = subprocess.Popen(
                list(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                encoding="utf-8",
            )
        except OSError as exc:
            raise ProtocolError(f"could not spawn {command!r}: {exc}") from exc
        self._lines: queue.Queue = queue.Queue()
        self.stderr_lines: deque[str] = deque(maxlen=STDERR_KEEP)
        threading.Thread(target=self._pump_stdout, daemon=True).start()
        self._stderr_thread = threading.Thread(target=self._pump_stderr, daemon=True)
        self._stderr_thread.start()

    def _pump_stdout(self):
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)  # EOF marker

    def _pump_stderr(self):
        for line in self.proc.stderr:
            self.stderr_lines.append(line.rstrip("\n"))

    def send(self, message: dict, timeout: float) -> None:
        """Write one message under the deadline of the reply it asks for. A
        detector that has not taken it within timeout seconds is killed,
        which ends the blocked write, and ExternalTimeout is raised."""
        line = json.dumps(message) + "\n"
        failed: list[OSError] = []

        def write():
            try:
                self.proc.stdin.write(line)
                self.proc.stdin.flush()
            except OSError as exc:
                failed.append(exc)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        writer.join(timeout)
        if writer.is_alive():
            self.reap()
            writer.join(timeout=5)
            raise ExternalTimeout(f"detector did not read its input within {timeout:g}s")
        if failed:
            raise ProtocolError(f"detector closed stdin pipe: {failed[0]}") from failed[0]

    def recv(self, timeout: float) -> dict:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise ExternalTimeout(f"no reply within {timeout:g}s") from None
        if line is None:
            code = self.proc.wait()
            if code != 0:
                raise NonZeroExit(f"detector exited with status {code}")
            raise ProtocolError("detector closed stdout before replying")
        try:
            message = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"bad JSON from detector: {line!r}") from exc
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
            self.kill()
            raise ExternalTimeout("detector did not exit after shutdown") from None
        if code != 0:
            raise NonZeroExit(f"detector exited with status {code}")

    def kill(self) -> None:
        self.reap()
        self.close()

    def reap(self) -> None:
        """Kill the process if it still runs and wait for it to exit."""
        if self.proc.poll() is None:
            self.proc.kill()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass

    def close(self) -> None:
        """Close the pipes; stderr lines not yet read are lost."""
        for stream in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            try:
                stream.close()
            except OSError:
                pass

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
        reply = _expect(proc.recv(spec.message_timeout), "scores")
        if reply.get("id") != sid:
            raise ProtocolError(f"scores for {reply.get('id')!r}, expected {sid!r}")
        raw = reply.get("scores")
        # json.loads makes exact ints and floats; true and false are bools
        if not isinstance(raw, list) or not all(type(v) in (int, float) for v in raw):
            raise ProtocolError("scores must be a list of numbers")
        results.append((sid, validate_scores(series, raw)))

    proc.shutdown(spec.message_timeout)
    return results
