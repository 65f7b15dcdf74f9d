import sys
import time

import numpy as np
import pytest

from conftest import STUB_DIR
from tsadbench.core import SplitSpec, TimeSeries
from tsadbench.errors import (
    ExternalTimeout,
    LengthMismatch,
    NonZeroExit,
    ProtocolError,
)
from tsadbench.extern import STDERR_KEEP, ExternalDetectorSpec, _Process, drive
from tsadbench.schemas import plan_naive


def stub_spec(name, **kwargs):
    return ExternalDetectorSpec(
        command=(sys.executable, str(STUB_DIR / name)),
        name=name,
        startup_timeout=kwargs.pop("startup_timeout", 10.0),
        message_timeout=kwargs.pop("message_timeout", 10.0),
    )


@pytest.fixture
def task_and_series():
    labels = [0] * 20
    labels[-2] = 1
    series = TimeSeries(
        id="s0",
        values=[float(i) for i in range(20)],
        labels=labels,
        split=SplitSpec(train_end=8, valid_end=10, source="predefined"),
    )
    plan = plan_naive([series])
    return plan.tasks[0], {"s0": series}


class TestDrive:
    def test_zero_stub_accepted(self, task_and_series):
        task, by_id = task_and_series
        results = drive(stub_spec("stub_ok.py"), task, by_id)
        assert [sid for sid, _ in results] == ["s0"]
        scores = results[0][1]
        assert isinstance(scores, np.ndarray) and scores.dtype == np.float64
        assert not scores.flags.writeable
        assert scores.tolist() == [0.0] * 10

    def test_short_scores_raise_length_mismatch(self, task_and_series):
        task, by_id = task_and_series
        with pytest.raises(LengthMismatch):
            drive(stub_spec("stub_short.py"), task, by_id)

    def test_sleeping_stub_times_out(self, task_and_series):
        task, by_id = task_and_series
        spec = stub_spec("stub_sleep.py", message_timeout=1.5)
        with pytest.raises(ExternalTimeout):
            drive(spec, task, by_id)

    def test_stub_that_stops_reading_times_out(self):
        # the fit message (about 0.4 MB) fills the pipe while the stub sleeps
        n = 50_020
        labels = [0] * n
        labels[-2] = 1
        series = TimeSeries(
            id="long",
            values=[0.001 * i for i in range(n)],
            labels=labels,
            split=SplitSpec(train_end=50_000, valid_end=50_010, source="predefined"),
        )
        task = plan_naive([series]).tasks[0]
        spec = stub_spec("stub_stop_reading.py", message_timeout=1.0)
        t0 = time.monotonic()
        with pytest.raises(ExternalTimeout, match="did not read"):
            drive(spec, task, {"long": series})
        assert time.monotonic() - t0 < spec.message_timeout + 1.0

    def test_dying_stub_raises_nonzero_exit(self, task_and_series):
        task, by_id = task_and_series
        with pytest.raises(NonZeroExit):
            drive(stub_spec("stub_die.py"), task, by_id)

    def test_error_reply_raises_protocol_error(self, task_and_series):
        task, by_id = task_and_series
        with pytest.raises(ProtocolError, match="cannot fit this"):
            drive(stub_spec("stub_error_reply.py"), task, by_id)

    def test_stderr_is_not_protocol_data(self, task_and_series):
        task, by_id = task_and_series
        results = drive(stub_spec("stub_noisy_stderr.py"), task, by_id)
        assert [(sid, scores.tolist()) for sid, scores in results] == [("s0", [0.5] * 10)]

    def test_stderr_tail_attached_to_failure(self, task_and_series):
        task, by_id = task_and_series
        with pytest.raises(NonZeroExit, match="model exploded"):
            drive(stub_spec("stub_die_loud.py"), task, by_id)

    def test_boolean_scores_raise_protocol_error(self, task_and_series):
        task, by_id = task_and_series
        with pytest.raises(ProtocolError, match="list of numbers"):
            drive(stub_spec("stub_bool.py"), task, by_id)

    def test_unspawnable_command(self, task_and_series):
        task, by_id = task_and_series
        spec = ExternalDetectorSpec(command=("/nonexistent/detector",))
        with pytest.raises(ProtocolError):
            drive(spec, task, by_id)


def test_spec_validation():
    with pytest.raises(Exception):
        ExternalDetectorSpec(command=())
    with pytest.raises(Exception):
        ExternalDetectorSpec(command=("x",), startup_timeout=0)


def test_captured_stderr_is_bounded():
    proc = _Process([sys.executable, str(STUB_DIR / "stub_chatty_die.py")])
    try:
        proc.send({"type": "hello", "protocol": 1}, 10.0)
        assert proc.recv(10.0)["type"] == "hello"
        proc.send({"type": "fit", "series": []}, 10.0)
        assert proc.proc.wait(timeout=30) == 4
        proc._stderr_thread.join(timeout=30)
        assert not proc._stderr_thread.is_alive()
        assert len(proc.stderr_lines) == STDERR_KEEP  # of 20,000 written
        expected = " | ".join(f"progress {i}" for i in range(19995, 20000))
        assert proc.stderr_tail() == expected
    finally:
        proc.kill()


def test_failure_message_keeps_last_stderr_line(task_and_series, monkeypatch):
    """The stderr tail is read after the process is reaped but before its
    pipes are closed, so lines the reader thread has not reached yet still
    make it into the message. A delayed reader makes that deterministic."""
    pump = _Process._pump_stderr

    def late_pump(self):
        time.sleep(0.3)
        pump(self)

    monkeypatch.setattr(_Process, "_pump_stderr", late_pump)
    task, by_id = task_and_series
    with pytest.raises(NonZeroExit, match="line 999"):
        drive(stub_spec("stub_tail_die.py"), task, by_id)
