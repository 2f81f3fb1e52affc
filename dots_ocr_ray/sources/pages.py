"""Pages-table source for the test and bench paths:
:func:`pages_from_documents` deterministically wraps the driver's
``documents`` parquet into pages (the per-row rule lives in
fixtures.page_row_from_document so DuckDB oracle SQL can mirror it).
An on-disk pages table is read with ``ray.data.read_parquet``.
"""

from __future__ import annotations

import ray.data

from dots_ocr_ray.fixtures import pages_from_documents_batch


def pages_from_documents(
    sf_dir: str,
    *,
    override_num_blocks: int | None = None,
    with_images: bool = False,
) -> ray.data.Dataset:
    """documents.parquet → pages Dataset (adds a pass-through doc_id).
    ``with_images`` applies the fixture IMAGE_MOD rule (describe-pool
    fixture pages)."""
    import functools

    kwargs = {}
    if override_num_blocks is not None:
        kwargs["override_num_blocks"] = override_num_blocks
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"], **kwargs
    )
    return docs.map_batches(
        functools.partial(pages_from_documents_batch, with_images=with_images),
        batch_format="pyarrow",
    )
