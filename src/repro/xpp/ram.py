"""RAM processing array elements (RAM-PAEs).

Each RAM-PAE contains 512x24 bits of dual-ported SRAM, configurable as
standard RAM or as a FIFO (the paper's circular lookup tables are
preloaded FIFOs).  The two ports are independent: a read and a write can
fire in the same cycle.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.fixed import wrap, wrap_list
from repro.xpp.errors import ConfigurationError
from repro.xpp.objects import DataflowObject

#: Words per RAM-PAE in the XPP-64A.
RAM_WORDS = 512
RAM_BITS = 24


class Image(list):
    """A preload as a PAE's ``image`` configures it: words wrapped to
    ``bits`` and checked against the PAE's size.  A PAE of the same
    width takes one as it is, with no second wrap, so a resident kernel
    wraps each of its constant tables once (:func:`repro.kernels.fft64.
    resident_stage`).  Treat it as read-only: the PAE keeps it as its
    configured contents."""

    def __init__(self, words, bits: int):
        super().__init__(words)
        self.bits = bits


class RamPae(DataflowObject):
    """Dual-ported RAM: read port (``raddr`` -> ``rdata``) and write port
    (``waddr`` + ``wdata``).

    ``preload`` initialises memory contents (lookup tables).  A read and a
    write may fire in the same cycle; a same-cycle read of a written
    address returns the old contents (read-before-write).
    """

    KIND = "ram"
    ENERGY = 1.5

    def __init__(self, name: str, *, words: int = RAM_WORDS,
                 bits: int = RAM_BITS, preload=None):
        super().__init__(name, 3, 1,
                         in_names=["raddr", "waddr", "wdata"],
                         out_names=["rdata"])
        if not 1 <= words <= RAM_WORDS:
            raise ConfigurationError(
                f"{name}: RAM-PAE holds at most {RAM_WORDS} words")
        self.words = words
        self.bits = bits
        self._preload = self.image(() if preload is None else preload)
        self._mem = list(self._preload)
        self._batch = None      # configured member images, or None
        self._members = None    # the members' current images
        self._member = 0
        self._do_read = False
        self._do_write = False

    def image(self, data) -> Image:
        """The memory image a preload of ``data`` configures: values
        wrapped to ``bits``, zero-filled to ``words`` (an :class:`Image`
        of this width and size passes as it is)."""
        if type(data) is Image and data.bits == self.bits \
                and len(data) == self.words:
            return data
        mem = wrap_list(data, self.bits)
        if len(mem) > self.words:
            raise ConfigurationError(
                f"{self.name}: preload exceeds {self.words} words")
        return Image(mem + [0] * (self.words - len(mem)), self.bits)

    def images(self, data: np.ndarray) -> list:
        """The member images of a batched preload: one :meth:`image` per
        row of a ``(B, words)`` integer array, wrapped in one NumPy
        fold."""
        if data.dtype.kind not in "iu" or self.bits > 64:
            raise ConfigurationError(
                f"{self.name}: a batched image is an integer array of "
                f"words up to 64 bits")
        if not len(data):
            raise ConfigurationError(f"{self.name}: a batch needs a member")
        if data.shape[1] > self.words:
            raise ConfigurationError(
                f"{self.name}: preload exceeds {self.words} words")
        fill = [0] * (self.words - data.shape[1])
        return [Image(row + fill, self.bits)
                for row in wrap(data, self.bits).tolist()]

    @property
    def mem(self):
        """The memory image, current after any run: a session that still
        holds this RAM writes it back first (the RAM alone, when the
        session is absorbed: :meth:`ConfigurationManager.settle_ram
        <repro.xpp.manager.ConfigurationManager.settle_ram>`).  After a
        batched reload, the members' images as one ``(B, words)`` int64
        array (final once the batch has run); a one-image reload ends
        the batch."""
        ref = self._manager
        mgr = ref() if ref is not None else None
        if mgr is not None:
            mgr.settle_ram(self)
        if self._batch is None:
            return self._mem
        return np.array(self._members, dtype=np.int64)

    @mem.setter
    def mem(self, image) -> None:
        self.settle()
        self._mem = image
        if self._batch is not None:
            self._members[self._member] = image

    def _reset(self) -> None:
        """Restore the configured memory image (configuration reload):
        of member ``_member`` in a batch, all members' from member 0."""
        super()._reset()
        if self._batch is None:
            self._mem = list(self._preload)
        else:
            if not self._member:
                self._members = [list(image) for image in self._batch]
            self._mem = self._members[self._member]
        self._do_read = False
        self._do_write = False

    def flip_bit(self, word: int, bit: int) -> int:
        """Flip one stored bit (an SRAM soft error); returns the new
        word value.  This is the injection surface of
        :class:`repro.faults.models.RamBitFlip` — flipping stored data
        never changes the firing rule, only the values later read out,
        which is what keeps fault runs scheduler-equivalent."""
        if not 0 <= word < self.words:
            raise ConfigurationError(
                f"{self.name}: no word {word} (holds {self.words})")
        self.settle()
        self._mem[word] = wrap(self._mem[word] ^ (1 << (bit % self.bits)),
                               self.bits)
        return self._mem[word]

    def plan(self) -> bool:
        raddr, waddr, wdata = self.inputs
        rdata = self.outputs[0]
        self._do_read = (raddr.bound and raddr.available >= 1
                         and rdata.space >= 1)
        self._do_write = (waddr.bound and waddr.available >= 1
                          and wdata.bound and wdata.available >= 1)
        return self._do_read or self._do_write

    def commit(self) -> None:
        if self._do_read:
            addr = self.inputs[0].pop() % self.words
            self.outputs[0].push(self._mem[addr])
        if self._do_write:
            addr = self.inputs[1].pop() % self.words
            value = wrap(self.inputs[2].pop(), self.bits)
            self._mem[addr] = value
        self.fired += 1

    def compute(self, args):  # pragma: no cover - plan/commit overridden
        raise NotImplementedError


class FifoPae(DataflowObject):
    """RAM-PAE in FIFO mode.

    ``circular=True`` re-enqueues each output token at the tail — the
    paper's circular lookup table for FFT read/write addresses and twiddle
    factors.  Input and output sides fire independently.
    """

    KIND = "ram"
    ENERGY = 1.5

    def __init__(self, name: str, *, depth: int = RAM_WORDS,
                 bits: int = RAM_BITS, preload=None, circular: bool = False):
        super().__init__(name, 1, 1, in_names=["in"], out_names=["out"])
        if not 1 <= depth <= RAM_WORDS:
            raise ConfigurationError(
                f"{name}: FIFO depth of a RAM-PAE is at most {RAM_WORDS}")
        self.depth = depth
        self.bits = bits
        self.circular = circular
        self._preload = self.image(() if preload is None else preload)
        self._q: deque = deque(self._preload)
        self._do_in = False
        self._do_out = False

    def image(self, data) -> Image:
        """The FIFO contents a preload of ``data`` configures: values
        wrapped to ``bits``, at most ``depth`` of them (an :class:`Image`
        of this width that fits passes as it is)."""
        if type(data) is Image and data.bits == self.bits \
                and len(data) <= self.depth:
            return data
        q = wrap_list(data, self.bits)
        if len(q) > self.depth:
            raise ConfigurationError(f"{self.name}: preload exceeds depth")
        return Image(q, self.bits)

    def __len__(self) -> int:
        return len(self._q)

    def _reset(self) -> None:
        """Restore the configured FIFO contents (configuration reload)."""
        super()._reset()
        self._q = deque(self._preload)
        self._do_in = False
        self._do_out = False

    def flip_bit(self, word: int, bit: int) -> int:
        """Flip one bit of the ``word``-th queued entry (SRAM soft
        error in the FIFO's backing RAM)."""
        self.settle()
        if not self._q:
            raise ConfigurationError(f"{self.name}: FIFO empty, no bit "
                                     f"to flip")
        idx = word % len(self._q)
        self._q[idx] = wrap(self._q[idx] ^ (1 << (bit % self.bits)),
                            self.bits)
        return self._q[idx]

    def plan(self) -> bool:
        inp, out = self.inputs[0], self.outputs[0]
        self._do_in = (inp.bound and inp.available >= 1
                       and len(self._q) < self.depth)
        self._do_out = bool(self._q) and out.bound and out.space >= 1
        return self._do_in or self._do_out

    def commit(self) -> None:
        # Emit first so a full circular FIFO can still rotate.
        if self._do_out:
            value = self._q.popleft()
            self.outputs[0].push(value)
            if self.circular:
                self._q.append(value)
        if self._do_in:
            self._q.append(wrap(self.inputs[0].pop(), self.bits))
        self.fired += 1

    def compute(self, args):  # pragma: no cover - plan/commit overridden
        raise NotImplementedError
