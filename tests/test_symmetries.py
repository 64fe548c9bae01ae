"""The system's exact symmetries as whole-pipeline oracles.

On the periodic grid the swap ``u1 <-> u2``, the reflection ``x -> -x``, the
Galilean boost by a whole number k of frequency bins,
``u_j -> e^{i k dxi x} u_j``, and the constant phases ``u_j -> e^{i c_j} u_j``
map solutions to solutions, under either coupling.  The boost's phase and
the pull-back's cancel, so the profiles of the boosted run are those of the
run shifted by k bins, with no phase; the reflection sends the profile at
``xi`` to ``-xi``, and the Nyquist slot, its own mirror, stays.  Each oracle
runs the ``simulate`` pipeline (:func:`run_simulate`) on the data and on
their image and compares the reports of ``profiles.csv``: a pull-back error
or a component-order error shows here, although the moduli that ``m_hat``
reads cannot see a pull-back error.  The swap and the boost also run through
``analyze`` of each run's stored checkpoints and through the RK4 oracle,
whose trajectory writes the same reports.

Both runs of a pair take the same steps, so they agree to roundoff; the
tolerance is a fixed multiple of it on each column's largest entry, not a
value measured on these data.
"""

import csv
import dataclasses
import itertools

import numpy as np
import pytest

from nlspair.dynamics import SolverConfig
from nlspair.harness import (
    ExperimentConfig,
    emit_trajectory_reports,
    generate_initial_data,
    run_analyze,
    run_simulate,
)

from conftest import rk4_run

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
    """``simulate(data1, data2, coupling, via)``: the compared columns of the
    ``profiles.csv`` for these data, written by the ``simulate`` pipeline,
    by ``analyze`` of its stored checkpoints (``via="analyze"``), or from
    the RK4 oracle's trajectory (``via="rk4"``)."""
    root, runs = tmp_path_factory.mktemp("symmetries"), itertools.count()

    def reports(data1, data2, coupling="dissipative", via="simulate"):
        out = root / f"run{next(runs)}"
        solver = dataclasses.replace(SOLVER, coupling=coupling)
        config = ExperimentConfig(name="symmetry", seed=0, solver=solver, data1=data1,
                                  data2=data2, save_checkpoints=via == "analyze")
        if via == "rk4":
            state = generate_initial_data(data1, data2, solver.grid, config.seed)
            emit_trajectory_reports(rk4_run(solver, state), out, config.analysis)
        else:
            run_simulate(config, out)
        if via == "analyze":
            (out / "profiles.csv").unlink()
            run_analyze(out)
        return _profiles_csv(out / "profiles.csv")

    return reports


@pytest.fixture(scope="module")
def base(simulate):
    table = simulate(DATA1, DATA2)
    # both oracles need survivors as well as balanced frequencies
    assert set(table["label"]) == {"survivor_1", "balanced"}
    return table


@pytest.fixture(scope="module", params=["analyze", "rk4"])
def via(simulate, request):
    """``(via, table)``: the base reports through ``analyze`` or the RK4 oracle."""
    table = simulate(DATA1, DATA2, via=request.param)
    assert set(table["label"]) == {"survivor_1", "balanced"}
    return request.param, table


@pytest.fixture(scope="module")
def conservative(simulate):
    table = simulate(DATA1, DATA2, "conservative")
    # the labels are the imbalance's sign, and no survivor has a limit
    assert set(table["label"]) == {"survivor_1", "balanced"}
    assert np.all(np.isnan(table["beta_plus"]))
    return table


def _close(got, want):
    """NaN exactly where ``want`` is, and elsewhere equal to roundoff on the
    column's largest entry; an all-NaN column has no largest entry."""
    nan = np.isnan(want)
    if not np.array_equal(np.isnan(got), nan):
        return False
    return bool(nan.all()) or \
        np.max(np.abs(got - want)[~nan]) <= TOL * np.max(np.abs(want[~nan]))


def _swap(simulate, base, coupling, via="simulate"):
    # the labels swap, the imbalance changes sign, and the survivor's limit
    # stays the same
    swapped = simulate(DATA2, DATA1, coupling, via)
    assert swapped["label"].tolist() == [SWAPPED[s] for s in base["label"]]
    for name in ("m_hat_a", "m_hat_b"):
        assert _close(swapped[name], -base[name]), name
    assert _close(swapped["beta_plus"], base["beta_plus"])


def _boost(simulate, base, bins, coupling, via="simulate"):
    # every profile-side report shifts by the boost's bins
    v = bins * SOLVER.grid.dxi
    boosted = simulate({**DATA1, "velocity": v}, {**DATA2, "velocity": v}, coupling, via)
    assert boosted["label"].tolist() == np.roll(base["label"], bins).tolist()
    for name in ("m_hat_a", "m_hat_b", "beta_plus"):
        assert _close(boosted[name], np.roll(base[name], bins)), name


def test_swap(simulate, base):
    _swap(simulate, base, "dissipative")


@pytest.mark.parametrize("bins", [1, 7])
def test_boost(simulate, base, bins):
    _boost(simulate, base, bins, "dissipative")


def test_swap_via(simulate, via):
    _swap(simulate, via[1], "dissipative", via[0])


@pytest.mark.parametrize("bins", [1, 7])
def test_boost_via(simulate, via, bins):
    _boost(simulate, via[1], bins, "dissipative", via[0])


def test_swap_conservative(simulate, conservative):
    _swap(simulate, conservative, "conservative")


@pytest.mark.parametrize("bins", [1, 7])
def test_boost_conservative(simulate, conservative, bins):
    _boost(simulate, conservative, bins, "conservative")


def test_reflection(simulate):
    # the second Gaussian off the centre: the mirrored data's every column
    # moves from ordered index j to N - j, and the Nyquist slot at 0 stays
    right = simulate(DATA1, {**DATA2, "center": 3.0})
    left = simulate(DATA1, {**DATA2, "center": -3.0})
    n = SOLVER.grid.n_points
    mirror = (n - np.arange(n)) % n
    assert "survivor_1" in set(right["label"]) and "balanced" in set(right["label"])
    assert left["label"].tolist() == right["label"][mirror].tolist()
    for name in ("m_hat_a", "m_hat_b", "beta_plus"):
        assert _close(left[name], right[name][mirror]), name


def test_phase(simulate, base):
    # constant phases leave the labels and the imbalance, and turn each
    # survivor's limit by its own component's phase
    c1, c2 = 0.7, -1.9
    turned = simulate({**DATA1, "phase": c1}, {**DATA2, "phase": c2})
    assert turned["label"].tolist() == base["label"].tolist()
    for name in ("m_hat_a", "m_hat_b"):
        assert _close(turned[name], base[name]), name
    turn = np.where(base["label"] == "survivor_2", np.exp(1j * c2), np.exp(1j * c1))
    assert _close(turned["beta_plus"], turn * base["beta_plus"])
