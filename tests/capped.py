"""Run the quasicross CLI in a child process whose address space is
capped at 512 MiB, so that a command which allocates before it refuses
ends in "out of memory" instead of taking the machine's memory."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

import quasicross

LIMIT = 512 << 20


def cli_in_512_mib(*argv: str) -> subprocess.CompletedProcess:
    """`python -m quasicross *argv` under the cap, stdout and stderr captured."""
    env = dict(os.environ, PYTHONPATH=str(Path(quasicross.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "quasicross", *argv], env=env, capture_output=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT)),
    )
