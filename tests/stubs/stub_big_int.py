#!/usr/bin/env python3
"""Misbehaving detector: the last score of each reply is an integer of
sys.argv[1] digits, written as text (json.dumps refuses ints past 4,300
digits)."""
import json
import sys


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


big = "1" + "0" * (int(sys.argv[1]) - 1)
for line in sys.stdin:
    msg = json.loads(line)
    kind = msg["type"]
    if kind == "hello":
        emit({"type": "hello", "name": "big", "protocol": 1})
    elif kind == "fit":
        emit({"type": "fit_done"})
    elif kind == "score":
        zeros = "0, " * (len(msg["values"]) - 1)
        sys.stdout.write(f'{{"type": "scores", "id": "{msg["id"]}", "scores": [{zeros}{big}]}}\n')
        sys.stdout.flush()
    elif kind == "shutdown":
        sys.exit(0)
