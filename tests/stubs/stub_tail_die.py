#!/usr/bin/env python3
"""At fit, writes a burst of numbered stderr lines (less than a pipe buffer
holds, so it never blocks) and exits with a nonzero status at once."""
import json
import sys

LINES = 1000


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


for line in sys.stdin:
    msg = json.loads(line)
    kind = msg["type"]
    if kind == "hello":
        emit({"type": "hello", "name": "tail", "protocol": 1})
    elif kind == "fit":
        sys.stderr.write("".join(f"line {i}\n" for i in range(LINES)))
        sys.stderr.flush()
        sys.exit(5)
    elif kind == "shutdown":
        sys.exit(0)
