#!/usr/bin/env python3
"""First-order difference detector over the external-detector protocol 1.

Standard library only. Reads newline-delimited JSON requests on stdin and
answers on stdout: the score at t is |x_t - x_{t-1}| over the context plus
the test values, and 0 where t has no predecessor, which is exactly the
built-in ``first_diff`` detector. The benchmark checks that both leave
byte-identical score dumps.
"""

import json
import sys


def first_diff(context, values):
    history = context + values
    c = len(context)
    return [
        abs(history[c + j] - history[c + j - 1]) if c + j >= 1 else 0.0
        for j in range(len(values))
    ]


def reply(message):
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main():
    for line in sys.stdin:
        message = json.loads(line)
        kind = message["type"]
        if kind == "hello":
            reply({"type": "hello", "name": "ext_first_diff", "protocol": 1})
        elif kind == "fit":
            reply({"type": "fit_done"})
        elif kind == "score":
            scores = first_diff(message["context"], message["values"])
            reply({"type": "scores", "id": message["id"], "scores": scores})
        elif kind == "shutdown":
            return 0
        else:
            reply({"type": "error", "message": f"unknown request {kind!r}"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
