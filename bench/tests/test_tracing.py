import pytest

from bench.tracing import OP, Hooks, Recorder, hook_table


def fake_clock(*ticks):
    sequence = iter(ticks)
    return lambda: next(sequence)


def test_self_time_is_duration_minus_children():
    # op [0, 10] holds A [1, 4] (with a hot child [2, 3]) and B [5, 9].
    recorder = Recorder(clock=fake_clock(0, 1, 2, 3, 4, 5, 9, 10))
    recorder.begin_op(7)
    a = recorder.enter("A")
    hot = recorder.enter("hot", hot=True)
    recorder.exit(hot)
    recorder.exit(a)
    b = recorder.enter("B")
    recorder.exit(b)
    recorder.end_op()

    assert recorder.self_total == {"hot": 1, "A": 2, "B": 4, OP: 3}
    assert recorder.total == {"hot": 1, "A": 3, "B": 4, OP: 10}
    assert recorder.unattributed_share() == pytest.approx(0.3)
    op, span_a, span_b = recorder.spans   # hot frames keep no span
    assert (op.name, op.parent, op.op) == (OP, -1, 7)
    assert (span_a.parent, span_a.start, span_a.end, span_a.self_s) == \
        (0, 1, 4, 2)
    assert (span_b.parent, span_b.op) == (0, 7)


def test_frames_must_close_in_order():
    recorder = Recorder(clock=fake_clock(0, 1, 2))
    outer = recorder.enter("outer")
    recorder.enter("inner")
    with pytest.raises(RuntimeError):
        recorder.exit(outer)


def test_wrapper_records_only_inside_an_op():
    recorder = Recorder()
    wrapped = recorder.timed(lambda x: x * 2,
                             lambda parent, args, kwargs, result:
                             f"{parent}/double{result}")
    assert wrapped(2) == 4
    assert not recorder.calls
    recorder.begin_op(0)
    assert wrapped(3) == 6
    recorder.end_op()
    assert recorder.calls == {f"{OP}/double6": 1, OP: 1}


def test_wrapper_closes_its_frame_when_the_call_raises():
    recorder = Recorder()

    def fail():
        raise KeyError("boom")

    wrapped = recorder.timed(fail, "fails")
    recorder.begin_op(0)
    with pytest.raises(KeyError):
        wrapped()
    recorder.end_op()
    assert recorder.calls == {"fails": 1, OP: 1}


def test_hooks_restore_the_original_functions():
    originals = [(owner, attribute, vars(owner)[attribute])
                 for owner, attribute, _make in hook_table()]
    hooks = Hooks(Recorder())
    hooks.install()
    try:
        for owner, attribute, original in originals:
            assert vars(owner)[attribute] is not original
        with pytest.raises(RuntimeError):
            hooks.install()
    finally:
        hooks.uninstall()
    for owner, attribute, original in originals:
        assert vars(owner)[attribute] is original
