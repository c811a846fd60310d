#!/usr/bin/env python3
"""Run scenario files through scenario_runner and check every result.

Each run must exit 0 and report at least one policy result, every one of
them with "failed": 0.

Usage: tools/run_scenarios.py <scenario_runner> <scenario.json>...
Exit status: 0 when every scenario passes, 1 otherwise.
"""
import json
import subprocess
import sys

MARKER = "JSON results:\n"


def check(runner, path):
    """Return a list of problems with one scenario run (empty = pass)."""
    proc = subprocess.run([runner, path], capture_output=True, text=True)
    if proc.returncode != 0:
        return ["exit %d: %s" % (proc.returncode, proc.stderr.strip())]
    if MARKER not in proc.stdout:
        return ["no JSON results in the output"]
    doc = json.loads(proc.stdout.split(MARKER, 1)[1])
    results = doc.get("results", [])
    if not results:
        return ["no policy results"]
    return ["policy %s: %d failed requests" % (r["policy"], r["failed"])
            for r in results if r["failed"] != 0]


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    runner, paths = argv[1], argv[2:]
    ok = True
    for path in paths:
        problems = check(runner, path)
        print("%s: %s" % (path, "; ".join(problems) if problems else "ok"))
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
