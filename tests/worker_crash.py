"""Crash a pool worker the way a real failure does.

A task that calls :func:`exit_in_worker` kills the process running it
with ``os._exit`` (what an OOM kill or a segfault looks like to the
pool) when it runs in a pool worker, and returns normally in the parent
process, so the serial recompute of the task succeeds.
"""

from __future__ import annotations

import multiprocessing
import os


def exit_in_worker() -> None:
    """Exit the current process at once if it is a pool worker."""
    if multiprocessing.parent_process() is not None:
        os._exit(17)
