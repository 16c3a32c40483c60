"""Reference kernel: a yardstick for the machine's current speed.

A shared machine does not run at one speed.  On a shared 2-vCPU Intel Xeon
virtual machine, a fixed pure-Python loop completed 30 to 57 iterations per
second in consecutive 10-second windows, so two runs of the same code could
differ by a third in wall time.  The harness therefore runs
``kernel_s`` next to every op and reports op times scaled to the reference
speed: ``wall * REF_KERNEL_S / kernel``, the seconds the op would take on a
machine that runs the kernel in ``REF_KERNEL_S``.  The raw wall times are kept
in the run's report.

The kernel mixes the operations the program spends its time on: integer
row elimination with growing entries (zlinalg), subset tests between small
sets (the complex constructor), Fraction elimination (quadforms) and bitmask
XORs (F2 cochains).  A fresh process is slowed by other things (process
start, page faults, reading and unmarshalling modules), so fresh-process
times are scaled by ``cold_kernel_s`` instead: a fresh interpreter importing
a fixed set of standard-library modules.  Both kernels are fixed code: they
must not change between the commits being compared.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

REF_KERNEL_S = 0.006
REF_COLD_KERNEL_S = 0.2
COLD_IMPORTS = ("import argparse, asyncio, csv, decimal, email.mime.multipart, "
                "fractions, http.client, json, logging, pydoc, sqlite3, "
                "tarfile, unittest, xml.dom.minidom, zipfile")


def _kernel() -> int:
    n = 18
    a = [[(i * 7 + j * 13) % 11 - 5 for j in range(n)] for i in range(n)]
    for k in range(n - 1):
        p = a[k][k] or 1
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [x * p - f * y for x, y in zip(a[i], a[k])]
    sets = [frozenset((i, i + 1 + i % 3, i + 3 + i % 5, i + 7))
            for i in range(120)]
    subsets = sum(1 for s in sets for t in sets if s < t)
    m = [[Fraction((i + 1) * (j + 2) % 7 + 1, (i + j) % 5 + 1)
          for j in range(8)] for i in range(8)]
    for k in range(7):
        for i in range(k + 1, 8):
            f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    mask = 0
    for i in range(20000):
        mask ^= (1 << (i % 500)) | i
    return subsets + mask.bit_length() + a[-1][-1].bit_length()


def kernel_s() -> float:
    """Seconds one run of the reference kernel takes right now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def cold_kernel_s(env: dict) -> float:
    """Seconds a fresh interpreter takes to import COLD_IMPORTS right now."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_IMPORTS], env=env, check=True)
    return time.perf_counter() - t0
