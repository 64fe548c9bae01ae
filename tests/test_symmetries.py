"""The system's exact symmetries as whole-pipeline oracles.

On the periodic grid the swap ``u1 <-> u2`` and the Galilean boost by a
whole number k of frequency bins, ``u_j -> e^{i k dxi x} u_j``, map solutions
to solutions.  The boost's phase and the pull-back's cancel, so the profiles
of the boosted run are those of the run shifted by k bins, with no phase.
Each oracle runs the ``simulate`` pipeline (:func:`run_simulate`) on the
data and on their image and compares the reports of ``profiles.csv``: a
pull-back error or a component-order error shows here, although the moduli
that ``m_hat`` reads cannot see a pull-back error.

Both runs of a pair take the same steps, so they agree to roundoff; the
tolerance is a fixed multiple of it on each column's largest entry, not a
value measured on these data.
"""

import csv
import itertools

import numpy as np
import pytest

from nlspair.dynamics import SolverConfig
from nlspair.harness import ExperimentConfig, run_simulate

# roundoff of a run and its reports: the data, some 10^2 composed steps of
# length-1024 transforms and the analytics each add a few eps
TOL = 1e4 * np.finfo(float).eps

SWAPPED = {"survivor_1": "survivor_2", "survivor_2": "survivor_1", "balanced": "balanced"}

# the grid and data of the short-range-contrast preset, dissipative
SOLVER = SolverConfig(n_points=1024, length=1400.0, t_end=1e3,
                      checkpoint_times=(0.0,) + tuple(np.geomspace(2.0, 1e3, 30)))
DATA1 = {"kind": "gaussian", "amp": 0.05, "width": 8.0}
DATA2 = {"kind": "gaussian", "amp": 0.02, "width": 12.0}


def _profiles_csv(path) -> dict:
    """The columns of a ``profiles.csv`` that the oracles compare: the
    labels, the two imbalance estimates and the complex ``beta_plus``, with
    an empty cell as NaN."""
    header, *rows = list(csv.reader(path.read_text().splitlines()))[1:]
    cols = dict(zip(header, zip(*rows)))

    def num(name):
        return np.array([float(c) if c else np.nan for c in cols[name]])

    return {"label": np.array(cols["case_label"]), "m_hat_a": num("m_hat_a"),
            "m_hat_b": num("m_hat_b"), "beta_plus": num("beta_plus_re") + 1j * num("beta_plus_im")}


@pytest.fixture(scope="module")
def simulate(tmp_path_factory):
    """``simulate(data1, data2)``: the compared columns of the pipeline's
    ``profiles.csv`` for these data."""
    root, runs = tmp_path_factory.mktemp("symmetries"), itertools.count()

    def reports(data1, data2):
        out = root / f"run{next(runs)}"
        run_simulate(ExperimentConfig(name="symmetry", seed=0, solver=SOLVER,
                                      data1=data1, data2=data2), out)
        return _profiles_csv(out / "profiles.csv")

    return reports


@pytest.fixture(scope="module")
def base(simulate):
    table = simulate(DATA1, DATA2)
    # both oracles need survivors as well as balanced frequencies
    assert set(table["label"]) == {"survivor_1", "balanced"}
    return table


def _close(got, want):
    """Equal to roundoff on the column's largest entry, NaN where ``want`` is."""
    scale = np.nanmax(np.abs(want))
    return np.array_equal(np.isnan(got), np.isnan(want)) and \
        np.nanmax(np.abs(got - want)) <= TOL * scale


def test_swap(simulate, base):
    # the labels swap, the imbalance changes sign, and the survivor's limit
    # stays the same
    swapped = simulate(DATA2, DATA1)
    assert swapped["label"].tolist() == [SWAPPED[s] for s in base["label"]]
    for name in ("m_hat_a", "m_hat_b"):
        assert _close(swapped[name], -base[name]), name
    assert _close(swapped["beta_plus"], base["beta_plus"])


@pytest.mark.parametrize("bins", [1, 7])
def test_boost(simulate, base, bins):
    # every profile-side report shifts by the boost's bins
    v = bins * SOLVER.grid.dxi
    boosted = simulate({**DATA1, "velocity": v}, {**DATA2, "velocity": v})
    assert boosted["label"].tolist() == np.roll(base["label"], bins).tolist()
    for name in ("m_hat_a", "m_hat_b", "beta_plus"):
        assert _close(boosted[name], np.roll(base[name], bins)), name
