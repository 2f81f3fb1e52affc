"""The schema-hash warning filter (util.quiet_ray_data_schema_warnings)
must survive Ray Data's logging re-configure, which runs at every
execution, and drop only that one message."""

import logging
import os
import subprocess
import sys

from ray.data._internal.logging import configure_logging

from dots_ocr_ray.util import make_quiet_hook, quiet_ray_data_schema_warnings

NOISY = "ray.data._internal.arrow_ops.transform_pyarrow"
# loggers that print INFO lines at every Dataset execution
PER_EXECUTION = ("ray.data._internal.logging", "ray.data._internal.execution.streaming_executor")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _passes(logger: logging.Logger, msg: str, level: int = logging.WARNING) -> bool:
    return bool(logger.filter(logger.makeRecord(logger.name, level, __file__, 0, msg, (), None)))


def test_filter_survives_reconfigure_and_drops_only_the_hash_warning():
    quiet_ray_data_schema_warnings()
    make_quiet_hook()()  # idempotent: still one filter
    configure_logging()
    logger = logging.getLogger(NOISY)
    assert len(logger.filters) == 1
    assert not _passes(logger, "Failed to hash the schemas (for deduplication): unhashable type: 'dict'")
    assert _passes(logger, "some other warning")


def test_per_execution_info_lines_dropped_warnings_kept():
    quiet_ray_data_schema_warnings()
    make_quiet_hook()()
    configure_logging()
    for name in PER_EXECUTION:
        logger = logging.getLogger(name)
        assert len(logger.filters) == 1
        assert not _passes(logger, "Starting execution of Dataset x.", logging.INFO)
        assert not _passes(logger, "Execution config", logging.DEBUG)
        assert _passes(logger, "a warning", logging.WARNING)
        assert _passes(logger, "an error", logging.ERROR)


def test_dataset_execution_prints_no_info_lines():
    """One small Dataset execution in a fresh process, set up as the CLI
    sets up Ray, writes none of Ray Data's per-execution lines to stderr."""
    script = (
        "import ray, ray.data\n"
        "from dots_ocr_ray.util import make_quiet_hook, quiet_ray_data_schema_warnings\n"
        "quiet_ray_data_schema_warnings()\n"
        "ray.init(address='local', num_cpus=1, include_dashboard=False, logging_level='ERROR',\n"
        "         object_store_memory=80 << 20, runtime_env={'worker_process_setup_hook': make_quiet_hook()})\n"
        "ray.data.DataContext.get_current().enable_progress_bars = False\n"
        "ds = ray.data.range(8, override_num_blocks=2).map_batches(lambda b: b)\n"
        "print(len(ds.take_all()))\n"
        "ray.shutdown()\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "8"
    for line in ("Registered dataset logger", "Starting execution", "Execution plan", "execution finished"):
        assert line not in proc.stderr, proc.stderr
