"""Replayable fetch streams with handler injection.

A core fetches from a :class:`StreamStack`: a stack of instruction frames.
The bottom frame is the application's dynamic trace; taking an informing
trap pushes a *handler frame* on top, and the handler's terminating
MHRR-jump simply lets the frame exhaust, resuming the frame below.

Every fetched instruction carries a :class:`FetchPoint`; squashing younger
instructions (a mispredicted branch-style trap, or an exception-style flush)
is :meth:`StreamStack.rewind_after` — the stack pops any frames pushed after
the point and rewinds the owning frame so the same instructions are fetched
again.  This replay is exactly the paper's semantics: the instruction after
a trapping memory op is squashed and later re-fetched after the handler
returns.

Every frame indexes a list of instructions.  A frame over a
:class:`SharedStream` reads the stream's append-only list directly and
grows it on demand, so the cells of one benchmark can share a single
generated, instrumented stream (``DynInst`` objects are never mutated).
A commit (:meth:`StreamStack.committed`) raises the frame's rewind floor:
rewinding below the newest commit is a :class:`StreamError`.
"""

from __future__ import annotations

import threading
from itertools import islice
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.isa.instructions import DynInst

#: Instructions pulled from a stream's source per growth step.  Batching
#: the generator drain through ``islice`` replaces one interpreter-level
#: ``next()`` round-trip per fetched instruction with one per chunk.
_REFILL_CHUNK = 64


class StreamError(RuntimeError):
    """Raised on rewinds to unavailable points (a core bug, not a workload)."""


class FetchPoint(NamedTuple):
    """Identity of one fetched instruction: owning frame plus index."""

    frame_serial: int
    index: int


class SharedStream:
    """An instruction source drawn once into an append-only list.

    The items are ``DynInst`` objects, or the vec backend's row tuples
    when the source maps another stream to rows.

    Any number of frames, iterators and threads may read ``insts``
    concurrently.  Only :meth:`grow` draws from the source, under the
    stream's lock, and it publishes each chunk with one ``list.extend``,
    so a reader that checks ``index < len(insts)`` without the lock never
    sees a partial chunk.  A stream derived from another (an
    instrumentation pass over an iterator of it) takes its own lock, then
    the base stream's: locks are always taken derived-first.
    """

    __slots__ = ("insts", "_source", "_lock", "__weakref__")

    def __init__(self, source: Iterable[DynInst]) -> None:
        self.insts: List[DynInst] = []
        self._source: Optional[Iterator[DynInst]] = iter(source)
        self._lock = threading.Lock()

    def grow(self, index: int) -> bool:
        """Draw until ``insts[index]`` exists; False if the source ends
        first."""
        insts = self.insts
        with self._lock:
            while len(insts) <= index and self._source is not None:
                chunk = list(islice(self._source, _REFILL_CHUNK))
                if chunk:
                    insts.extend(chunk)
                else:
                    self._source = None
        return index < len(insts)

    def __iter__(self) -> Iterator[DynInst]:
        insts = self.insts
        index = 0
        while index < len(insts) or self.grow(index):
            yield insts[index]
            index += 1


class _Frame:
    __slots__ = ("serial", "insts", "source", "floor", "pos")

    def __init__(self, source: Iterable[DynInst], serial: int) -> None:
        self.serial = serial
        if isinstance(source, list):
            # Handler bodies: complete lists, indexed as they are.
            self.source: Optional[SharedStream] = None
            self.insts: List[DynInst] = source
        else:
            if not isinstance(source, SharedStream):
                source = SharedStream(source)
            self.source = source
            self.insts = source.insts
        self.floor = 0           # index after the newest commit
        self.pos = 0             # index of the next fetch

    def rewind_to(self, index: int) -> None:
        if index < self.floor:
            raise StreamError(
                f"rewind to {index} below committed base {self.floor}")
        if index > self.pos:
            raise StreamError(f"rewind to {index} beyond fetch point {self.pos}")
        self.pos = index


class StreamStack:
    """The fetch source: application frame at the bottom, handlers above."""

    def __init__(self, main: Iterable[DynInst]) -> None:
        self._frames: List[_Frame] = [_Frame(main, 0)]
        self._next_serial = 1

    # -- fetching ------------------------------------------------------------
    def fetch(self) -> Optional[Tuple[DynInst, FetchPoint]]:
        """Fetch the next instruction, popping exhausted handler frames.

        Returns None when the application frame itself is exhausted.
        """
        frames = self._frames
        tuple_new = tuple.__new__
        while True:
            top = frames[-1]
            # One instruction is fetched per simulated issue slot, so the
            # NamedTuple constructor is bypassed as it showed up in profiles.
            pos = top.pos
            insts = top.insts
            if pos < len(insts) or (top.source is not None
                                    and top.source.grow(pos)):
                top.pos = pos + 1
                return insts[pos], tuple_new(FetchPoint, (top.serial, pos))
            if len(frames) == 1:
                return None
            frames.pop()

    # -- handler injection ---------------------------------------------------
    def push_handler(self, instructions: Iterable[DynInst]) -> int:
        """Push a handler frame; fetch resumes from it immediately."""
        serial = self._next_serial
        self._next_serial += 1
        self._frames.append(_Frame(instructions, serial))
        return serial

    # -- squash / replay -------------------------------------------------------
    def rewind_after(self, point: FetchPoint) -> None:
        """Squash everything fetched after *point*; next fetch follows it."""
        self._pop_to(point).rewind_to(point.index + 1)

    def rewind_to(self, point: FetchPoint) -> None:
        """Squash *point* itself too; it will be re-fetched."""
        self._pop_to(point).rewind_to(point.index)

    def _pop_to(self, point: FetchPoint) -> _Frame:
        while self._frames and self._frames[-1].serial != point.frame_serial:
            if len(self._frames) == 1:
                raise StreamError(
                    f"rewind target frame {point.frame_serial} is gone")
            self._frames.pop()
        return self._frames[-1]

    # -- retirement ---------------------------------------------------------
    def committed(self, point: FetchPoint) -> None:
        """The instruction at *point* is committed; raise the rewind floor.

        Commits arrive in program order, so nothing at or before the point
        in its frame can be rewound to again.  Points in already-popped
        handler frames are ignored.
        """
        serial = point.frame_serial
        for frame in self._frames:
            if frame.serial == serial:
                if point.index >= frame.floor:
                    frame.floor = point.index + 1
                return

    @property
    def depth(self) -> int:
        """Number of frames on the stack (1 = no handler active)."""
        return len(self._frames)

    @property
    def buffered(self) -> int:
        """Instructions drawn into the frames above their commit floors."""
        return sum(len(frame.insts) - frame.floor for frame in self._frames)
