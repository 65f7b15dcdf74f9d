#!/usr/bin/env python3
"""Misbehaving detector: at fit, starts a sleeping grandchild that shares
its stdout and stderr, names the grandchild's pid on stderr and dies."""
import json
import subprocess
import sys


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


for line in sys.stdin:
    msg = json.loads(line)
    kind = msg["type"]
    if kind == "hello":
        emit({"type": "hello", "name": "orphan", "protocol": 1})
    elif kind == "fit":
        child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        print(f"grandchild {child.pid}", file=sys.stderr, flush=True)
        sys.exit(6)
    elif kind == "shutdown":
        sys.exit(0)
