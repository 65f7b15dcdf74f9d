#!/usr/bin/env python3
"""Misbehaving detector: answers a score request with a reply 1 MiB longer
than the harness reads for it (64 KiB plus 312 bytes per score), without a
newline, then sleeps."""
import json
import sys
import time


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


for line in sys.stdin:
    msg = json.loads(line)
    kind = msg["type"]
    if kind == "hello":
        emit({"type": "hello", "name": "long", "protocol": 1})
    elif kind == "fit":
        emit({"type": "fit_done"})
    elif kind == "score":
        sys.stdout.write("0" * (64 * 1024 + 312 * len(msg["values"]) + 2**20))
        sys.stdout.flush()
        time.sleep(600)
    elif kind == "shutdown":
        sys.exit(0)
