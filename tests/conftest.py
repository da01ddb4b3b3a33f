import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True,
                 logging_level="ERROR")
    yield
    from tools.check_queries import shutdown

    shutdown()


@pytest.fixture(scope="session")
def fixture_web():
    from upton_ray.synth import fixture_web as fw

    return fw()
