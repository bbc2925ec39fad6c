"""Run the quasicross CLI with one survey instance held before its search.

    python tests/held_survey.py K_PLUS,K_MINUS,Q FLAG ARGS...

runs `python -m quasicross ARGS...` with `search._run_instance` wrapped:
when instance (K_PLUS, K_MINUS, Q) starts, it creates the file FLAG.held
and waits until FLAG.released exists.  The CLI's SIGINT handler creates
FLAG.released before it unwinds, and its KeyboardInterrupt cuts the wait
short, so the held instance logs no row.  Without a SIGINT the instance
is held until the process is killed.  The kill and interrupt tests use
this, so that the window they signal in does not depend on how fast the
search is.
"""

from __future__ import annotations

import os
import sys
import time

from quasicross import cli, search

HELD = tuple(map(int, sys.argv[1].split(",")))
FLAG = sys.argv[2]
run_instance, interrupt = search._run_instance, cli._interrupt


def held(args):
    if tuple(args[:3]) == HELD:
        open(FLAG + ".held", "w").close()
        while not os.path.exists(FLAG + ".released"):
            time.sleep(0.005)
    return run_instance(args)


def released(signum, frame):
    open(FLAG + ".released", "w").close()
    return interrupt(signum, frame)


# patched before `main` runs: it and the survey look each one up when called
search._run_instance, cli._interrupt = held, released

if __name__ == "__main__":
    sys.exit(cli.main(sys.argv[3:]))
