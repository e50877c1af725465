"""The tracer's bookkeeping: self times, wrapping and attribute restore."""

import pytest

from spans import Patcher, Tracer, count_within, self_times


def toy_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_is_duration_minus_child_time():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    tr = Tracer(clock=toy_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tr.span("root"):
        with tr.span("a"):
            with tr.span("c"):
                pass
        with tr.span("b"):
            pass
    st = self_times(tr.spans, ("root",))
    assert st["root"] == (10 - 3 - 4, 1)
    assert st["a"] == (3 - 1, 1)
    assert st["c"] == (1, 1)
    assert st["b"] == (4, 1)
    total = sum(t for t, _ in st.values())
    assert total == 10  # self times partition the root span


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, -1], ["x", 1.0, 5.0, 0], ["y", 3.0, 6.0, 0]]
    assert self_times(spans, ("p",))["p"] == (10.0 - 5.0, 1)


def test_calls_accumulate_per_name():
    tr = Tracer(clock=toy_clock(range(100)))
    f = tr.wrap(lambda: None, "f")
    with tr.span("step"):
        f()
        f()
    f()
    st = self_times(tr.spans, ("step", "f"))
    assert st["f"] == (3, 3)
    assert count_within(tr.spans, "f", "step") == 2


def test_spans_outside_the_roots_are_left_out():
    # f runs once in the "solve" phase, then twice in an untimed check
    tr = Tracer(clock=toy_clock(range(100)))
    f = tr.wrap(lambda: None, "f")
    with tr.span("solve"):
        f()
    with tr.span("check"):
        f()
    f()
    st = self_times(tr.spans, ("solve",))
    assert st["f"] == (1, 1)
    assert set(st) == {"solve", "f"}


def test_wrap_passes_return_value_and_exceptions_through():
    tr = Tracer()
    result = object()
    assert tr.wrap(lambda x, y=1: (x, y, result), "g")(5, y=2) == (5, 2,
                                                                  result)

    def boom():
        raise KeyError("k")

    with pytest.raises(KeyError):
        tr.wrap(boom, "boom")()
    assert [s[0] for s in tr.spans] == ["g", "boom"]
    assert all(s[2] is not None for s in tr.spans)
    assert tr._stack == []


def test_wrap_function_replaces_every_binding_and_restores():
    import mhdkit.assembly
    import mhdkit.models.standard
    original = mhdkit.assembly.cell_matrix
    tr, patcher = Tracer(), Patcher()
    patcher.wrap_function(original, tr.wrapper("assembly.cell_matrix"))
    assert mhdkit.models.standard.cell_matrix is mhdkit.assembly.cell_matrix
    assert mhdkit.assembly.cell_matrix is not original
    patcher.restore()
    assert mhdkit.assembly.cell_matrix is original
    assert mhdkit.models.standard.cell_matrix is original


def test_instrumenting_every_layer_restores_cleanly():
    import layers
    import mhdkit.linalg
    before = dict(vars(mhdkit.linalg.LuSolver))
    patcher = Patcher()
    layers.instrument(Tracer(), patcher)
    counts = layers.install_counters(patcher)
    assert vars(mhdkit.linalg.LuSolver)["solve"] is not before["solve"]
    mhdkit.linalg.LuSolver(__import__("numpy").eye(2)).solve([1.0, 2.0])
    assert counts["lu_solve"] == 1
    patcher.restore()
    assert dict(vars(mhdkit.linalg.LuSolver)) == before
