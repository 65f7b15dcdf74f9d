#!/usr/bin/env python3
"""Misbehaving detector: answers hello, then stops reading stdin and exits
by itself a few seconds later."""
import json
import sys
import time

sys.stdin.readline()
sys.stdout.write(json.dumps({"type": "hello", "name": "deaf", "protocol": 1}) + "\n")
sys.stdout.flush()
time.sleep(5)
