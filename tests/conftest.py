import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (never per-test)."""
    import ray

    from dots_ocr_ray.util import make_quiet_hook, quiet_ray_data_schema_warnings

    quiet_ray_data_schema_warnings()
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
            runtime_env={"worker_process_setup_hook": make_quiet_hook()},
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def exchange_tier(monkeypatch):
    """``exchange_tier()`` forces every ``util.broadcast_fits`` choice to
    the exchange side for the rest of the test;
    ``exchange_tier(False)`` restores the size rule."""
    from dots_ocr_ray import util

    real = util.broadcast_fits

    def _force(on: bool = True):
        monkeypatch.setattr(util, "broadcast_fits", (lambda nbytes: False) if on else real)

    return _force
