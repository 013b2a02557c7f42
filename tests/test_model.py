import numpy as np
import pytest

import mechmorph as mm
from mechmorph import bifurcation, dynamics
from mechmorph.errors import ConfigurationError


@pytest.mark.parametrize("kappa, expected", [(np.int64(2), 2.0), (np.float32(1.5), 1.5),
                                             (np.float64(1.25), 1.25)])
def test_model_params_take_numpy_scalars(kappa, expected):
    params = mm.ModelParams(D=np.float32(0.5), kappa=kappa)
    assert (params.D, params.kappa) == (0.5, expected)
    assert type(params.D) is float and type(params.kappa) is float


@pytest.mark.parametrize("value", [True, np.bool_(True), "1.5", None, np.nan, np.inf, 0, -1.0])
def test_model_params_reject_what_is_not_a_positive_real(value):
    with pytest.raises(ConfigurationError, match="kappa must be a finite positive real"):
        mm.ModelParams(D=0.01, kappa=value)
    with pytest.raises(ConfigurationError, match="D must be a finite positive real"):
        mm.ModelParams(D=value, kappa=1.5)


GRID = mm.make_grid(64)
PARAMS = mm.ModelParams(D=0.02, kappa=1.5)
BP = mm.critical_kappas(0.02, 1)[0]
SWEEP = ([0.02], [1.5])


@pytest.mark.parametrize(
    "call",
    [
        lambda: mm.simulate(mm.Field(GRID, np.full(64, 1.5)), PARAMS, t_end=1.0, record_every=2.5),
        lambda: mm.simulate(mm.Field(GRID, np.full(64, 1.5)), PARAMS, t_end=1.0, record_every=True),
        lambda: mm.continue_branch(BP, max_points=2.5, grid=GRID),
        lambda: mm.continue_branch(BP, n_modes=20.5, grid=GRID),
        lambda: mm.sweep(*SWEEP, trials=1.5, n_points=64),
        lambda: mm.sweep(*SWEEP, workers=1.5, n_points=64),
        lambda: mm.sweep(*SWEEP, seed=-1, n_points=64),
        lambda: mm.sweep(*SWEEP, seed=1.5, n_points=64),
        lambda: mm.critical_kappas(0.02, np.float64(2.0)),
        lambda: mm.rescale_modal(mm.constant_state(PARAMS, GRID), 2.0),
    ],
    ids=["record_every=2.5", "record_every=True", "max_points=2.5", "n_modes=20.5",
         "trials=1.5", "workers=1.5",
         "seed=-1", "seed=1.5", "n_max=2.0", "m=2.0"],
)
def test_integer_options_reject_non_integers_before_any_work(monkeypatch, call):
    def work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(dynamics, "_Stepper", work)
    monkeypatch.setattr(bifurcation, "_bordered_newton", work)
    monkeypatch.setattr(bifurcation, "_classify_cell", work)
    with pytest.raises(ConfigurationError, match="and an integer"):
        call()


def test_integer_options_take_numpy_integers(monkeypatch):
    monkeypatch.setattr(bifurcation, "_classify_cell", lambda args: None)
    result = mm.sweep(*SWEEP, trials=np.int64(1), seed=np.uint32(3), workers=np.int8(1))
    assert result.cells == [None]
    assert len(mm.critical_kappas(0.02, np.int64(2))) == 2
