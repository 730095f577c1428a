import pytest
from hypothesis import HealthCheck, settings

import wavedet as wd

settings.register_profile(
    "numerics",
    deadline=None,
    max_examples=25,
    # a falsifying draw prints a @reproduce_failure blob that replays it,
    # also where a strategy draws a closure that the report cannot show
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("numerics")


@pytest.fixture(scope="session")
def pt():
    return wd.builtin_problem("poschl_teller")


@pytest.fixture(scope="session")
def pt_system(pt):
    return wd.to_system(pt)


@pytest.fixture(scope="session")
def grid():
    return wd.default_grid()


@pytest.fixture(scope="session")
def coarse_grid():
    # 200 nodes is enough for ~1e-8 determinants and twice as fast
    return wd.build_grid(20.0, 200)
