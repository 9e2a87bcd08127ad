"""A fixed reference kernel that gauges the host's current speed.

    python3 perfbench/reference.py

run.py launches it as a fresh process before every measured command and
times it from launch to exit. It does what a trialbench command does, without
any trialbench code: import numpy and scipy.stats, fit logistic regressions by
Newton steps on 20k rows, run an interpreter loop and stream over arrays too
large for the caches. So a change to the program never changes its time; only
the host does.
"""

import numpy as np
import scipy.stats  # noqa: F401  (import cost, as every trialbench command pays it)

rng = np.random.default_rng(0)
X = np.column_stack([np.ones(20000), rng.normal(size=(20000, 3))])
y = (rng.random(20000) < 1.0 / (1.0 + np.exp(-X @ [0.2, 0.5, -0.4, 0.3]))).astype(float)
for _ in range(150):
    beta = np.zeros(4)
    for _ in range(6):
        p = 1.0 / (1.0 + np.exp(-X @ beta))
        hessian = X.T @ (X * (p * (1.0 - p))[:, None])
        beta = beta + np.linalg.solve(hessian, X.T @ (y - p))
total = 0
for i in range(300000):
    total += i
# Large-array passes, as in importance-sampled truths: memory bandwidth.
Z = rng.standard_normal((2_000_000, 4))
for _ in range(3):
    np.exp(-0.5 * (Z * Z).sum(axis=1)).mean()
