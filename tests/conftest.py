from types import SimpleNamespace

import pytest

from twofluid import config, dynamics, twin


@pytest.fixture(scope="session")
def std1d_cfg():
    return config.default_config()


@pytest.fixture(scope="session")
def std1d_params(std1d_cfg):
    return std1d_cfg.params


@pytest.fixture(scope="session")
def std1d_initial(std1d_cfg):
    return config.build_initial_state(std1d_cfg)


@pytest.fixture(scope="session")
def traj128(std1d_initial, std1d_params):
    return dynamics.run(std1d_initial, std1d_params)


@pytest.fixture(scope="session")
def sweep128(std1d_initial, std1d_params):
    """Perturbation sweep on std1d, shared reference run; its rows are ``.rows``."""
    return SimpleNamespace(
        rows=twin.stability_sweep(std1d_initial, std1d_params, deltas=(1e-2, 1e-3, 1e-4))
    )


@pytest.fixture(scope="session")
def twin128(std1d_initial, std1d_params):
    """The std1d twin at delta = 1e-3, the middle member of ``sweep128``."""
    return twin.run_twin(std1d_initial, std1d_params, delta=1e-3)


def cfg_at(n: int, **overrides) -> config.RunConfig:
    """std1d at a different resolution, with optional raw-key overrides."""
    lines = [f"[grid]", f"n = {n}", ""]
    for dotted, value in overrides.items():
        section, key = dotted.split("__")
        lines += [f"[{section}]", f"{key} = {value}", ""]
    return config.parse_config("\n".join(lines))
