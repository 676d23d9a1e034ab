"""Reference loop that measures how fast the machine runs at the moment.

Nothing here calls fnel: a change to fnel cannot change the time of this
loop, only the machine can.  It mixes the kinds of work fnel's calls do:
an interpreted loop over dicts and floats, small numpy array arithmetic and
one sparse tridiagonal solve.
"""

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_N = 512
_A = sp.diags([np.full(_N - 1, -1.0), np.full(_N, 2.0), np.full(_N - 1, -1.0)],
              [-1, 0, 1], format="csc")
_B = np.ones(_N)


def reference_work():
    acc = {}
    total = 0.0
    for i in range(3000):
        k = i % 97
        acc[k] = acc.get(k, 0.0) + 0.5 * i
        total += 1e-6 * acc[k]
    x = np.linspace(0.0, 1.0, 64)
    for _ in range(60):
        x = np.sqrt(x * x + 1.0) - 0.5 * x
    return total + float(x[-1]) + float(spla.spsolve(_A, _B)[0])


def timed_reference():
    """Wall time of one reference_work() call."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0
