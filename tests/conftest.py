from types import SimpleNamespace

import pytest

from twofluid import config, dynamics, energy, twin


@pytest.fixture(scope="session")
def std1d_cfg():
    return config.default_config()


@pytest.fixture(scope="session")
def std1d_params(std1d_cfg):
    return std1d_cfg.params


@pytest.fixture(scope="session")
def std1d_initial(std1d_cfg):
    return config.build_initial_state(std1d_cfg)


def keep(states):
    """An observer that appends each state it sees to ``states``."""
    return lambda state, *_: states.append(state)


def recorded_run(initial, params, **kwargs):
    """``dynamics.run`` with a ``Rows`` observer and every state kept.

    Returns the run's ``.traj``, its ``DiagnosticSeries`` ``.rows`` and its
    ``.states`` in order.
    """
    rows, states = dynamics.Rows(params), []
    traj = dynamics.run(initial, params, observers=(rows, keep(states)), **kwargs)
    return SimpleNamespace(traj=traj, rows=rows.series(), states=states)


def perturbation(delta):
    """The std1d config's velocity perturbation, resized to ``delta``."""
    return twin.Perturbation(delta=delta, wavevector=2, phase=0.0)


def audit_rows(rows):
    """``energy.audit_series`` of a run's ``DiagnosticSeries``."""
    return energy.audit_series(rows.t, rows.energy, rows.dissipation)


@pytest.fixture(scope="session")
def run128(std1d_initial, std1d_params):
    """The std1d run, recorded by ``recorded_run``."""
    return recorded_run(std1d_initial, std1d_params)


@pytest.fixture(scope="session")
def sweep128(std1d_initial, std1d_params):
    """Perturbation sweep on std1d, shared reference run; its rows are ``.rows``."""
    members = [perturbation(delta) for delta in (1e-2, 1e-3, 1e-4)]
    return SimpleNamespace(rows=twin.stability_sweep(std1d_initial, std1d_params, members))


@pytest.fixture(scope="session")
def twin128(std1d_initial, std1d_params):
    """The std1d twin at delta = 1e-3, the middle member of ``sweep128``."""
    return twin.run_twin(std1d_initial, std1d_params, perturbation(1e-3))


def cfg_at(n: int, **overrides) -> config.RunConfig:
    """std1d at a different resolution, with optional raw-key overrides."""
    lines = [f"[grid]", f"n = {n}", ""]
    for dotted, value in overrides.items():
        section, key = dotted.split("__")
        lines += [f"[{section}]", f"{key} = {value}", ""]
    return config.parse_config("\n".join(lines))
