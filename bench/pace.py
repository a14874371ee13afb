"""The machine's pace, measured next to every timed operation.

Other tenants of the measuring machine slow its cores down by up to 2x, for
seconds to minutes at a time, and CPU time slows down with wall time (it is
the core that is slower, not the process that waits). A run that falls in a
slow phase reads slow in every operation, so raw times of the same code
moved by more than 25 % between runs.

`calibrate` is a fixed piece of work that does not use hopfdelay: a
pure-Python float loop and small complex NumPy products, exponentials and
determinants, the same kinds of work as the library's hot paths. It is
timed right before every operation. A time `t` measured while the
calibration took `c` (the median of the nearest calibrations) is reported
as `t * REF_S / c`: the time the operation would take on a machine where
the calibration takes `REF_S`. A change to hopfdelay moves `t` and leaves
`c` alone, so it shows in full.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# best time of `calibrate` on the reference machine (2 cores of a shared
# host, Python 3.11.7, NumPy 2.4.6)
REF_S = 1.7e-3

_M = np.array([[1.0, 0.3j, 0.1], [0.2, 1.0, 0.4], [0.0, 0.5j, 1.0]])
_X = np.linspace(0.0, 1.0, 16)


def calibrate():
    s = 0.0
    for i in range(3000):
        s += math.sin(i * 0.001) * 1.0001
    for k in range(150):
        e = np.exp(-complex(0.1 * k, 1.0) * _X)
        s += abs(np.linalg.det(_M * e[0] + _M.T * e[5]))
    return s


def timed():
    """Wall time of one `calibrate` call, in seconds."""
    t0 = time.perf_counter()
    calibrate()
    return time.perf_counter() - t0


def factor(cal_times):
    """Factor that takes times measured next to `cal_times` to REF_S pace."""
    return REF_S / statistics.median(cal_times)
