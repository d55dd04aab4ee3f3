"""Machine-speed references: fixed work that does not involve ``lieweyl``.

The 2-vCPU virtual machine this benchmark was built on shares its cores
with other machines, and its speed moves by up to half within minutes.  The
movement hits every piece of code alike: over 1-second windows the time of a
small solve and the time of :func:`warm` move together (correlation 0.96),
and the time of a cold ``lieweyl report`` and the time of :func:`cold` move
together (correlation 0.93).  A run therefore times one of these references between
items and reports its times scaled to the reference's nominal speed:
``time * NOMINAL_MS / mean(reference ms)``.  The raw times stay in the
details file.

Neither reference runs ``lieweyl`` code, but :func:`warm` runs in the same
process right after ``lieweyl`` items.  A change that leaves state behind
(BLAS worker threads that keep spinning, a larger heap) can slow it down, and
the scaled figures would then show a gain the program did not make.  So a
claimed gain must also show in the raw figures (NOTES.md, "Noise").
"""
import subprocess
import sys

import numpy as np

WARM_NOMINAL_MS = 3.5
COLD_NOMINAL_MS = 180.0

_rng = np.random.default_rng(12345)
_JAC = _rng.standard_normal((64, 25, 5))
_SHIFT = np.einsum("bij,bkj->bik", *_rng.standard_normal((2, 64, 5, 5))) + 5.0 * np.eye(5)


def warm() -> float:
    """Small batched normal equations plus interpreter work, as in LM."""
    acc = 0.0
    for _ in range(16):
        jtj = np.einsum("bri,brj->bij", _JAC, _JAC)
        x = np.linalg.solve(jtj + _SHIFT, _JAC[:, :5, :1])
        acc += float(x.sum()) + sum(i * i for i in range(300))
    return acc


def cold() -> int:
    """A fresh interpreter that imports numpy, as a cold report starts."""
    return subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                          timeout=60).returncode
