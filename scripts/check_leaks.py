"""Fail when a finished test run left shared memory or pool workers behind.

Run it after pytest exits::

    python scripts/check_leaks.py

Pool workers exit on their own shortly after their coordinator dies,
and the multiprocessing resource tracker then unlinks the coordinator's
segments, so the check waits up to ``GRACE_SECONDS`` for both to
settle.  It then lists every ``/dev/shm/psm_*`` segment and every live
(non-zombie) process still running pytest, multiprocessing or this
package, and exits 1 if there is any.  Linux only (``/proc``,
``/dev/shm``).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

MARKERS = ("pytest", "multiprocessing", "repro.")
GRACE_SECONDS = 10.0


def leaked_segments() -> list[str]:
    return sorted(p.name for p in Path("/dev/shm").glob("psm_*"))


def stray_processes() -> list[str]:
    mine = {os.getpid(), os.getppid()}
    found = []
    for proc in Path("/proc").glob("[0-9]*"):
        try:
            state = (proc / "stat").read_text().rsplit(")", 1)[1].split()[0]
            cmd = (proc / "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except (OSError, IndexError, UnicodeDecodeError):
            continue
        if int(proc.name) in mine or state == "Z":
            continue
        if any(marker in cmd for marker in MARKERS):
            found.append(f"{proc.name}: {' '.join(cmd.split())[:160]}")
    return found


def main() -> int:
    deadline = time.monotonic() + GRACE_SECONDS
    while True:
        segments, procs = leaked_segments(), stray_processes()
        if not (segments or procs) or time.monotonic() > deadline:
            break
        time.sleep(0.25)
    for name in segments:
        print(f"leaked shared-memory segment: /dev/shm/{name}")
    for line in procs:
        print(f"process outlived the run: {line}")
    if segments or procs:
        return 1
    print("no leaked segments or stray workers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
