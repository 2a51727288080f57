"""How slow the host is running right now, from a fixed pure-Python kernel.

The host's speed drifts for minutes at a time.  On a shared 2-vCPU Xeon VM,
one offline-zipf batch stream on identical inputs ranged over 11% (IQR ÷
median) across 20-second windows in seven minutes, and the slow windows
were slow for this kernel too: dividing by the kernel's time cut that
spread to 5%.  Host-time metrics are therefore scaled by ``slowdown()``
measured alongside them.

The kernel uses only builtins, so it can run before ``import repro`` and no
change to the program can change its speed.
"""

import time

#: The kernel's median time on the VM above; ``slowdown()`` is 1 there.
NOMINAL_S = 0.035


def kernel_s() -> float:
    """Seconds for one pass of frozenset intersections and dict inserts."""
    state = 1
    sets = []
    for _ in range(1500):
        members = []
        for _ in range(24):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            members.append(state % 4000)
        sets.append(frozenset(members))
    start = time.perf_counter()
    shared = {}
    for i in range(len(sets) - 1):
        left = sets[i]
        for j in range(i + 1, min(i + 30, len(sets))):
            common = left & sets[j]
            if common:
                shared[common] = (left, j)
    return time.perf_counter() - start


def slowdown(samples: int = 5) -> float:
    """The kernel's median time now ÷ ``NOMINAL_S``; above 1 is slower."""
    times = sorted(kernel_s() for _ in range(samples))
    return times[len(times) // 2] / NOMINAL_S
