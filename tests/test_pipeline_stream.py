"""Unit tests for the replayable fetch-stream stack."""

import pytest

from repro.isa import alu, load, mhrr_jump
from repro.pipeline import FetchPoint, StreamStack, StreamError
from tests.helpers import STREAM_SOURCES


def insts(n, pc_base=0):
    return [alu(dest=1, pc=pc_base + 4 * i) for i in range(n)]


class TestLinearFetch:
    def test_fetch_in_order(self):
        stack = StreamStack(insts(3))
        fetched = []
        while True:
            item = stack.fetch()
            if item is None:
                break
            fetched.append(item)
        assert [inst.pc for inst, _ in fetched] == [0, 4, 8]
        assert [point.index for _, point in fetched] == [0, 1, 2]
        assert all(point.frame_serial == 0 for _, point in fetched)

    def test_exhausted_stream_returns_none_repeatedly(self):
        stack = StreamStack(insts(1))
        stack.fetch()
        assert stack.fetch() is None
        assert stack.fetch() is None

    def test_generator_source(self):
        stack = StreamStack(alu(dest=1, pc=i) for i in range(2))
        assert stack.fetch() is not None
        assert stack.fetch() is not None
        assert stack.fetch() is None


class TestHandlerInjection:
    def test_handler_frame_interposes(self):
        stack = StreamStack(insts(4))
        stack.fetch()  # pc 0
        stack.push_handler([alu(dest=2, pc=100), mhrr_jump(pc=104)])
        pcs = []
        while True:
            item = stack.fetch()
            if item is None:
                break
            pcs.append(item[0].pc)
        assert pcs == [100, 104, 4, 8, 12]

    def test_nested_handlers(self):
        stack = StreamStack(insts(2))
        stack.fetch()
        stack.push_handler([alu(dest=2, pc=100)])
        stack.fetch()  # pc 100
        stack.push_handler([alu(dest=3, pc=200)])
        pcs = [stack.fetch()[0].pc, stack.fetch()[0].pc]
        assert pcs == [200, 4]
        assert stack.depth == 1

    def test_depth_tracks_frames(self):
        stack = StreamStack(insts(2))
        assert stack.depth == 1
        stack.push_handler([alu(dest=2, pc=100)])
        assert stack.depth == 2


class TestRewind:
    def test_rewind_after_replays(self):
        stack = StreamStack(insts(4))
        _, p0 = stack.fetch()
        stack.fetch()
        stack.fetch()
        stack.rewind_after(p0)
        inst, point = stack.fetch()
        assert inst.pc == 4
        assert point.index == 1

    def test_rewind_to_refetches_same_instruction(self):
        stack = StreamStack(insts(3))
        first, p0 = stack.fetch()
        stack.fetch()
        stack.rewind_to(p0)
        again, _ = stack.fetch()
        assert again is first

    def test_rewind_pops_handler_frames(self):
        stack = StreamStack(insts(4))
        _, p0 = stack.fetch()
        stack.fetch()
        stack.push_handler([alu(dest=2, pc=100)])
        stack.fetch()
        stack.rewind_after(p0)  # squashes the handler too
        assert stack.depth == 1
        assert stack.fetch()[0].pc == 4

    def test_trap_replay_scenario(self):
        """An informing miss squashes younger insts, runs a handler, resumes."""
        trace = [load(0x100, dest=1, pc=0), alu(dest=2, pc=4), alu(dest=3, pc=8)]
        stack = StreamStack(trace)
        _, miss_point = stack.fetch()      # the load
        stack.fetch()                      # pc 4, will be squashed
        stack.fetch()                      # pc 8, will be squashed
        stack.rewind_after(miss_point)     # trap detected at execute
        stack.push_handler([alu(dest=9, pc=400), mhrr_jump(pc=404)])
        pcs = []
        while True:
            item = stack.fetch()
            if item is None:
                break
            pcs.append(item[0].pc)
        assert pcs == [400, 404, 4, 8]

    def test_rewind_to_dead_frame_raises(self):
        stack = StreamStack(insts(2))
        stack.fetch()
        stack.push_handler([alu(dest=2, pc=100)])
        _, hpoint = stack.fetch()
        stack.fetch()  # exhausts handler; next app fetch pops the frame
        stack.fetch()
        with pytest.raises(StreamError):
            stack.rewind_after(hpoint)

    def test_rewind_past_fetch_point_raises(self):
        stack = StreamStack(insts(2))
        _, p0 = stack.fetch()
        with pytest.raises(StreamError):
            stack.rewind_after(FetchPoint(p0.frame_serial, 5))


class TestCommitTrimming:
    def test_commit_bounds_buffering(self):
        stack = StreamStack(insts(100))
        points = [stack.fetch()[1] for _ in range(100)]
        assert stack.buffered == 100
        for point in points[:50]:
            stack.committed(point)
        assert stack.buffered == 50

    def test_rewind_below_commit_raises(self):
        for make_source in STREAM_SOURCES.values():
            stack = StreamStack(make_source(insts(4)))
            _, p0 = stack.fetch()
            _, p1 = stack.fetch()
            stack.committed(p1)
            with pytest.raises(StreamError):
                stack.rewind_to(p0)

    def test_commit_of_popped_handler_frame_is_ignored(self):
        stack = StreamStack(insts(2))
        stack.fetch()
        stack.push_handler([alu(dest=2, pc=100)])
        _, hpoint = stack.fetch()
        stack.fetch()  # pops the handler frame
        stack.committed(hpoint)  # no error
