"""Process-tree accounting from /proc: CPU seconds and PSS of live processes.

``RUSAGE_CHILDREN`` only counts children that have been reaped, so it
misses live pool lanes.  Lane CPU is read from ``/proc/<pid>/stat`` and
memory from ``/proc/<pid>/smaps_rollup``; PSS splits every shared page
between the processes that map it, so summing PSS over the parent and its
lanes counts a shared-memory segment once.
"""

from __future__ import annotations

import os
import time
from typing import Iterable

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (all its threads)."""
    if pid == os.getpid():
        return time.process_time()
    with open(f"/proc/{pid}/stat") as fh:
        stat = fh.read()
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the full line, 12 and 13 after the name.
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def pss_kb(pid: int) -> int:
    """Proportional set size of ``pid`` in kB."""
    with open(f"/proc/{pid}/smaps_rollup") as fh:
        for line in fh:
            if line.startswith("Pss:"):
                return int(line.split()[1])
    raise RuntimeError(f"no Pss line in /proc/{pid}/smaps_rollup")


def tree_cpu_seconds(pids: Iterable[int]) -> float:
    return sum(cpu_seconds(pid) for pid in pids)


def tree_pss_mb(pids: Iterable[int]) -> float:
    return sum(pss_kb(pid) for pid in pids) / 1000.0
