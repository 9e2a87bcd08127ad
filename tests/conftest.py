import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import trialbench
from trialbench import ColumnSchema, Dataset, EstimateWithIF, NuisanceSet, d1, generate, load_dataset
from trialbench.glm import LogisticModel

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE_CSV = REPO_ROOT / "data" / "d1_fixture.csv"
FIXTURE_SCHEMA = ColumnSchema(s="S", a="A", y="Y", x=("X1",))


def run_fresh(script: str, timeout: float) -> str:
    """The stdout of ``script`` run in a new interpreter that imports this
    trialbench, so its modules and its peak resident size are the script's
    alone."""
    package_root = str(pathlib.Path(trialbench.__file__).resolve().parent.parent)
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout


# The head of a run_fresh script that measures memory: peak_kib() is the
# process's own high-water mark. Its ru_maxrss would start at the resident
# size of the process that launched it, which it inherits at exec.
PEAK_KIB = """
def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
"""


def pinned_low(nu: NuisanceSet) -> NuisanceSet:
    """``nu`` with the participation and the trial propensity of arm 1 both
    pinned to 1e-300, where a probability is clipped: chi's weight at arm 1,
    the participation odds over that propensity, overflows."""
    low = LogisticModel(np.array([-800.0, 0.0]), True, 1, 0.0)
    return replace(nu, participation=low, propensity={**nu.propensity, "s1": low})


def estimate_with_if_values(
    label: str, value: float, if_values, n_effective: int
) -> EstimateWithIF:
    """An estimate whose influence values are ``if_values``: the outcome of a
    dataset whose rows are all cells of their own, with alpha 1 and beta 0."""
    y = np.asarray(if_values, dtype=float)
    n = y.size
    d = Dataset(
        x=np.arange(n, dtype=float)[:, None],
        s=np.arange(n) % 2,
        a=np.zeros(n, dtype=int),
        y=y,
        covariate_names=("X1",),
    )
    t = d.cells(False)
    assert t.count.size == n
    return EstimateWithIF(
        label=label, value=value, table=t, alpha=np.ones(n), beta=np.zeros(n), n_effective=n_effective
    )


@pytest.fixture(scope="session")
def fixture_dataset() -> Dataset:
    """The shipped benchmark dataset: (10000, 10000), seed 7."""
    return load_dataset(str(FIXTURE_CSV), FIXTURE_SCHEMA)


@pytest.fixture(scope="session")
def small_dataset() -> Dataset:
    """A quick benchmark draw for tests that refit many times."""
    return generate(d1(), (2000, 2000), seed=11)


@pytest.fixture()
def toy_dataset() -> Dataset:
    """Tiny handmade dataset covering all four study-by-treatment cells."""
    rng = np.random.default_rng(42)
    n = 400
    x = rng.integers(0, 2, n).astype(float)[:, None]
    s = np.repeat([1, 0], n // 2)
    a = rng.integers(0, 2, n)
    y = 1.0 + x[:, 0] + 2.0 * a + rng.normal(size=n)
    return Dataset(x=x, s=s, a=a, y=y, covariate_names=("X1",))


@pytest.fixture()
def write_config(tmp_path):
    def _write(payload: dict, name: str = "config.json") -> str:
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write
