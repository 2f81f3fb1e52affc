"""Guard for the benchmark's layer tracing (``perfbench/spans.py``).

The traced benchmark run wraps module-level names where their callers
look them up (``kernel.extract.segment_html``,
``stages.extract_stage.extract_page``, ...).  A refactor that renames
one crashes every traced run; one that bypasses it leaves its layer
row at zero.  Both fail here instead.
"""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def patched_namespaces():
    """Every namespace the installers patch, restored afterwards."""
    import ray.data

    import dots_ocr_ray.kernel.extract as kx
    import dots_ocr_ray.pipelines.extract as px
    import dots_ocr_ray.state.manifest as mf
    import dots_ocr_ray.stages.extract_stage as sx
    import dots_ocr_ray.util as util

    targets = [kx, px, mf, sx, util, sx.ExtractorActor, ray.data.Dataset]
    saved = [(t, dict(vars(t))) for t in targets]
    yield
    for t, before in saved:
        for name, value in list(vars(t).items()):
            if before.get(name, value) is not value:
                setattr(t, name, before[name])


def test_kernel_layers_recorded(patched_namespaces):
    spans = _load_spans()
    rec = spans.Recorder()
    spans.install_worker(rec)
    spans.install_local(rec)

    import dots_ocr_ray.stages.extract_stage as sx
    from dots_ocr_ray.fixtures import make_pages_table

    # row 0 runs the structured parse; row 9 (empty html) falls back
    out = sx.ExtractorActor()(make_pages_table(10, seed=42))
    assert set(out.column("status").to_pylist()) == {"finished", "fallback"}
    names = {s[3] for s in rec.spans}
    for name in (
        "stages.call",
        "kernel.extract_page",
        "kernel.segment_html",
        "kernel.prune_boilerplate",
        "kernel.dedup",
        "kernel.strip_tags",
    ):
        assert name in names, name
