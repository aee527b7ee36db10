"""Tests for the I/O port objects, including RAM-addressing mode."""

import numpy as np
import pytest

from repro.fixed import wrap
from repro.xpp import ConfigBuilder, ConfigurationManager, MemoryPort, \
    Simulator, StreamSource, execute


class TestStreamSource:
    def test_remaining_and_exhausted(self):
        src = StreamSource("s", [1, 2, 3])
        assert src.remaining == 3
        assert not src.exhausted

    def test_set_data_wraps_to_width(self):
        src = StreamSource("s", bits=8)
        src.set_data([130])
        assert src._data == [-126]

    @pytest.mark.parametrize("data", [
        np.array([0, 127, 128, -129, 1 << 40, -(1 << 40) - 3, 255, -1],
                 dtype=np.int64),
        np.array([0, 200, 255, 1 << 33], dtype=np.uint64),
        [0, 127, 128, -129, 1 << 40, -(1 << 70) - 3],
        [np.int64(300), np.int32(-200), np.uint8(255), np.int64(1 << 50)],
    ], ids=["int64", "uint64", "list", "numpy-scalars"])
    def test_set_data_vector_and_scalar_paths_agree(self, data):
        """Integer arrays wrap in one vectorised pass, anything else
        per sample; both give the same list of plain Python ints."""
        src = StreamSource("s", data, bits=8)
        assert src._data == [wrap(int(v), 8) for v in data]
        assert all(type(v) is int for v in src._data)

    def test_replacing_data_resets_position(self):
        b = ConfigBuilder("t")
        src = b.source("x", [1, 2])
        snk = b.sink("y", expect=2)
        b.chain(src, snk)
        cfg = b.build()
        execute(cfg, unload=True)
        src.set_data([5, 6])
        assert src.remaining == 2


class TestMemoryPort:
    def _load(self, cfg):
        mgr = ConfigurationManager()
        mgr.load(cfg)
        return mgr

    def test_reads_host_memory(self):
        b = ConfigBuilder("t")
        port = MemoryPort("ext", memory=[10, 20, 30, 40])
        b._cfg.add(port)
        addr = b.source("addr", [3, 0, 2])
        snk = b.sink("y", expect=3)
        b.connect(addr, 0, port, "raddr")
        b.connect(port, "rdata", snk, 0)
        assert execute(b.build())["y"] == [40, 10, 30]

    def test_writes_host_memory(self):
        b = ConfigBuilder("t")
        port = MemoryPort("ext", size=8)
        b._cfg.add(port)
        waddr = b.source("wa", [1, 5])
        wdata = b.source("wd", [111, 222])
        b.connect(waddr, 0, port, "waddr")
        b.connect(wdata, 0, port, "wdata")
        mgr = self._load(b.build())
        Simulator(mgr).run(50)
        assert port.memory[1] == 111
        assert port.memory[5] == 222

    def test_gather_via_address_stream(self):
        """The RAM-addressing use case: an array-generated address
        stream gathers scattered external samples."""
        data = list(range(100, 164))
        b = ConfigBuilder("gather")
        port = MemoryPort("ext", memory=data)
        b._cfg.add(port)
        counter = b.alu("COUNTER", start=0, step=4, count=8)
        snk = b.sink("y", expect=8)
        b.connect(counter, "value", port, "raddr")
        b.connect(port, "rdata", snk, 0)
        assert execute(b.build())["y"] == data[0:32:4]

    def test_counts_as_io_resource(self):
        b = ConfigBuilder("t")
        b._cfg.add(MemoryPort("ext", size=4))
        assert b._cfg.requirements()["io"] == 1

    def test_memory_wrapped_to_width(self):
        port = MemoryPort("ext", memory=[1 << 23], bits=24)
        assert port.memory[0] == -(1 << 23)

    def test_address_wraps_modulo_size(self):
        b = ConfigBuilder("t")
        port = MemoryPort("ext", memory=[7, 8])
        b._cfg.add(port)
        addr = b.source("a", [5])
        snk = b.sink("y", expect=1)
        b.connect(addr, 0, port, "raddr")
        b.connect(port, "rdata", snk, 0)
        assert execute(b.build())["y"] == [8]
