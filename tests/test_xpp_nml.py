"""Tests for the NML configuration language (parse, execute, round
trip)."""

import pytest

from repro.xpp import ConfigurationError, dump_nml, execute, parse_nml


BASIC = """
# a scale-and-accumulate pipeline
config demo
source x
alu scale MUL const=3
alu acc ACC length=2
sink y expect=3

connect x.out0 -> scale.a
connect scale.out0 -> acc.a capacity=4
connect acc.out0 -> y.in
"""


class TestParse:
    def test_basic_pipeline_executes(self):
        cfg = parse_nml(BASIC)
        r = execute(cfg, inputs={"x": [1, 2, 3, 4, 5, 6]})
        assert r["y"] == [9, 21, 33]

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_nml("config c\n\n# nothing\nsource a\nsink b\n"
                        "connect a.out0 -> b.in0\n")
        assert cfg.name == "c"
        assert len(cfg.objects) == 2

    def test_named_ports(self):
        text = """
config counters
alu cnt COUNTER limit=3 count=5
sink v expect=5
connect cnt.value -> v.in
"""
        cfg = parse_nml(text)
        assert execute(cfg)["v"] == [0, 1, 2, 0, 1]

    def test_list_parameters(self):
        text = """
config lut
source i
alu look LUT table=[10,20,30]
sink o expect=3
connect i.out0 -> look.index
connect look.out0 -> o.in
"""
        cfg = parse_nml(text)
        assert execute(cfg, inputs={"i": [2, 0, 1]})["o"] == [30, 10, 20]

    def test_fifo_and_ram_declarations(self):
        text = """
config mem
fifo f depth=4 preload=[7,8] circular=true
sink o expect=5
connect f.out -> o.in
"""
        cfg = parse_nml(text)
        assert execute(cfg)["o"] == [7, 8, 7, 8, 7]

    def test_capacity_annotation(self):
        cfg = parse_nml(BASIC)
        wire = next(w for w in cfg.wires if "scale" in w.name
                    and "acc" in w.name)
        assert wire.capacity == 4

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            parse_nml("")                               # empty
        with pytest.raises(ConfigurationError):
            parse_nml("source x\n")                     # missing header
        with pytest.raises(ConfigurationError):
            parse_nml("config a\nconfig b\n")           # duplicate header
        with pytest.raises(ConfigurationError):
            parse_nml("config a\nwidget w\n")           # unknown kind
        with pytest.raises(ConfigurationError):
            parse_nml("config a\nalu x ADD shift\n")    # bad param
        with pytest.raises(ConfigurationError):
            parse_nml("config a\nconnect x.out0 -> y\n")  # bad connect

    def test_unknown_object_in_connect(self):
        with pytest.raises(ConfigurationError):
            parse_nml("config a\nsource x\n"
                      "connect x.out0 -> ghost.in0\n")

    def test_validation_applies(self):
        # an ADD with no b and no const fails validation
        with pytest.raises(ConfigurationError):
            parse_nml("config a\nsource x\nalu op ADD\nsink y\n"
                      "connect x.out0 -> op.a\nconnect op.out0 -> y.in\n")


class TestRoundTrip:
    def test_dump_reparses_identically(self):
        cfg = parse_nml(BASIC)
        dumped = dump_nml(cfg)
        again = dump_nml(parse_nml(dumped))
        assert again == dumped

    def test_dump_preserves_behaviour(self):
        cfg1 = parse_nml(BASIC)
        cfg2 = parse_nml(dump_nml(parse_nml(BASIC)))
        r1 = execute(cfg1, inputs={"x": [4, 4, 6, 6]})
        r2 = execute(cfg2, inputs={"x": [4, 4, 6, 6]})
        assert r1["y"] == r2["y"]

    def test_complex_ops_round_trip(self):
        text = """
config cplx
source a bits=24
alu conj CCONJ
alu mul CMUL shift=3 conj_b=true
fifo w depth=2 preload=[5,6] circular=true bits=24
sink o expect=4
connect a.out0 -> conj.a
connect conj.out0 -> mul.a
connect w.out -> mul.b
connect mul.out0 -> o.in
"""
        dumped = dump_nml(parse_nml(text))
        assert "conj_b=true" in dumped
        assert "shift=3" in dumped
        assert dump_nml(parse_nml(dumped)) == dumped

    def test_builder_config_dumps(self):
        """Configurations built with the Python API serialise too."""
        from repro.kernels import build_descrambler_config
        cfg = build_descrambler_config()
        text = dump_nml(cfg)
        assert "LUT" in text and "CMUL" in text
        reparsed = parse_nml(text)
        assert reparsed.requirements() == cfg.requirements()


def _stateful():
    """A RAM written from sources, a FIFO filled and never read, and an
    integrator: every kind whose export shows the state a run left."""
    from repro.xpp import ConfigBuilder
    b = ConfigBuilder("stateful")
    ram = b.ram(name="r", words=4, bits=16)
    b.connect(b.source("wa", [3, 1, 3]), 0, ram, "waddr")
    b.connect(b.source("wd", [7, -2, 9], bits=16), 0, ram, "wdata")
    b.connect(b.source("x", [4, 5, 6]), 0, b.fifo(name="f", depth=4), "in")
    integ = b.alu("INTEG", name="integ")
    b.connect(b.source("y", [1, 2, 3, 4]), 0, integ, "a")
    b.connect(integ, 0, b.sink("s"), 0)
    return b.build()


@pytest.mark.parametrize("cycles", [None, 3], ids=["drained", "cut"])
def test_export_after_a_run_is_the_same_on_every_scheduler(cycles):
    """The export reads the state a run left (settled first), so a
    fastpath run, whose session holds that state until something
    settles it, exports what an event run does."""
    from repro.xpp import ConfigurationManager, Simulator
    before = dump_nml(_stateful())
    dumps = {}
    for scheduler in ("event", "fastpath"):
        cfg = _stateful()
        mgr = ConfigurationManager()
        mgr.load(cfg)
        sim = Simulator(mgr, scheduler=scheduler)
        sim.drain() if cycles is None else sim.run(cycles)
        dumps[scheduler] = dump_nml(cfg)
    assert dumps["fastpath"] == dumps["event"] != before
    if cycles is None:
        assert "preload=[0,-2,0,9]" in dumps["event"]
        assert "preload=[4,5,6]" in dumps["event"]
        assert "init=10" in dumps["event"]
