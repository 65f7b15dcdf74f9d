#!/usr/bin/env python3
"""Misbehaving detector: replies with JSON booleans instead of numbers."""
import json
import sys


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


for line in sys.stdin:
    msg = json.loads(line)
    kind = msg["type"]
    if kind == "hello":
        emit({"type": "hello", "name": "bool", "protocol": 1})
    elif kind == "fit":
        emit({"type": "fit_done"})
    elif kind == "score":
        flags = [False] * len(msg["values"])
        flags[-1] = True
        emit({"type": "scores", "id": msg["id"], "scores": flags})
    elif kind == "shutdown":
        sys.exit(0)
