"""A fixed pure-Python routine that measures how fast the host runs right now.

The benchmark runs on a shared machine whose speed changes from second to
second, by up to a factor of two, with the load of other tenants.  The
runner times this routine just before and just after every job and every
set-up and reports their times as multiples of it, so the reported figures
follow the program's cost and not the host's speed at the moment.

The routine shares no code with the package under test, so no change to the
package can change its time.  It does the kind of work the package does:
exact elimination over `Fraction`, a composition table held in a `dict` of
tuples, and a JSON round trip of that table, as the CLI makes.  One call takes a few milliseconds with CPython 3.11 on a 2-vCPU
virtual machine; `slice_s` repeats it SLICE_REPS times.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

SLICE_REPS = 4
# Seconds one slice takes on the machine the README's numbers come from, in
# its slower state.  `setup_s` is reported in seconds at this speed.
SLICE_NOMINAL_S = 0.015


def reference_work() -> tuple:
    n = 9
    rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]   # Hilbert matrix
    for c in range(n):
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    k = 24
    comp = {(a, b): (a * b + a + b) % k for a in range(k) for b in range(k)}
    total = sum(comp[(v, a)] for (a, _), v in comp.items())
    text = json.dumps({"compose": [[f"m{a}", f"m{b}", f"m{v}"] for (a, b), v in comp.items()]})
    triples = json.loads(text)["compose"]
    return rows[n - 1][n - 1], total, len(triples)


def slice_s() -> float:
    """Seconds taken by SLICE_REPS calls of the routine."""
    t0 = time.perf_counter()
    for _ in range(SLICE_REPS):
        reference_work()
    return time.perf_counter() - t0
