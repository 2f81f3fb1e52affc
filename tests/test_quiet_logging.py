"""The schema-hash warning filter (util.quiet_ray_data_schema_warnings)
must survive Ray Data's logging re-configure, which runs at every
execution, and drop only that one message."""

import logging

from ray.data._internal.logging import configure_logging

from dots_ocr_ray.util import make_quiet_hook, quiet_ray_data_schema_warnings

NOISY = "ray.data._internal.arrow_ops.transform_pyarrow"


def _passes(logger: logging.Logger, msg: str) -> bool:
    return bool(logger.filter(logger.makeRecord(logger.name, logging.WARNING, __file__, 0, msg, (), None)))


def test_filter_survives_reconfigure_and_drops_only_the_hash_warning():
    quiet_ray_data_schema_warnings()
    make_quiet_hook()()  # idempotent: still one filter
    configure_logging()
    logger = logging.getLogger(NOISY)
    assert len(logger.filters) == 1
    assert not _passes(logger, "Failed to hash the schemas (for deduplication): unhashable type: 'dict'")
    assert _passes(logger, "some other warning")
