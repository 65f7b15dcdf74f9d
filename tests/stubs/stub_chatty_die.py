#!/usr/bin/env python3
"""Writes many numbered stderr lines at fit, then dies with a nonzero status."""
import json
import sys

LINES = 20000


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


for line in sys.stdin:
    msg = json.loads(line)
    kind = msg["type"]
    if kind == "hello":
        emit({"type": "hello", "name": "chatty", "protocol": 1})
    elif kind == "fit":
        for i in range(LINES):
            print(f"progress {i}", file=sys.stderr)
        sys.stderr.flush()
        sys.exit(4)
    elif kind == "shutdown":
        sys.exit(0)
