"""The span recorder: wrapping, self time, removal and forked-worker spans."""

import multiprocessing
import os
import sys
import types
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, ".."))

from tracing import Tracer, union_length  # noqa: E402

layer = types.ModuleType("layer")


def _leaf(x):
    return x + 1


def _outer(x):
    return layer.leaf(x) * 2


layer.leaf, layer.outer = _leaf, _outer


def task(x):
    """Module-level so the pool can pickle it; calls through `layer`."""
    return layer.outer(x)


def test_spans_nest_and_self_time_excludes_children(tmp_path):
    tracer = Tracer(str(tmp_path))
    tracer.wrap(layer, "leaf", "leaf")
    tracer.wrap(layer, "outer", "outer", info=lambda r: r)
    tracer.request = 7
    assert layer.outer(1) == 4
    tracer.remove()
    assert layer.leaf is _leaf and layer.outer is _outer

    spans = {s.name: s for s in tracer.collect()}
    outer, leaf = spans["outer"], spans["leaf"]
    assert leaf.parent == outer.idx and outer.parent == -1
    assert outer.info == 4 and leaf.request == outer.request == 7
    assert abs(outer.self_time - (outer.dur - leaf.dur)) < 1e-12


def test_forked_workers_write_their_spans(tmp_path):
    tracer = Tracer(str(tmp_path))
    tracer.wrap(layer, "outer", "outer")
    try:
        fork = multiprocessing.get_context("fork")  # remlab's pool forks on Linux
        with ProcessPoolExecutor(max_workers=2, mp_context=fork) as pool:
            assert list(pool.map(task, range(6))) == [2 * (x + 1) for x in range(6)]
    finally:
        tracer.remove()
    spans = tracer.collect()
    assert len(spans) == 6
    assert all(s.pid != os.getpid() for s in spans)


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4
    assert union_length([]) == 0
