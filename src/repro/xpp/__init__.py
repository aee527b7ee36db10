"""Coarse-grained reconfigurable array (XPP) simulator.

Models the PACT XPP-64A of the paper: an 8x8 array of 24-bit ALU-PAEs
flanked by RAM-PAE columns, token-handshake communication sustaining one
result per cycle through filled pipelines, and a configuration manager
that loads/removes configurations at run time without ever overwriting a
resident one.

Typical use::

    from repro.xpp import ConfigBuilder, execute

    b = ConfigBuilder("scale")
    src = b.source("x")
    mul = b.alu("MUL", const=3)
    snk = b.sink("y", expect=4)
    b.chain(src, mul, snk)

    result = execute(b.build(), inputs={"x": [1, 2, 3, 4]})
    assert result["y"] == [3, 6, 9, 12]
"""

from repro.xpp.alu import AluPae, make_alu, opcodes
from repro.xpp.array import Slot, XppArray
from repro.xpp.config import ConfigBuilder, Configuration
from repro.xpp.errors import (
    ConfigurationError,
    ResourceError,
    RoutingError,
    SimulationError,
    XppError,
)
from repro.xpp.io import MemoryPort, StreamSink, StreamSource
from repro.xpp.manager import (
    CONFIG_CYCLES_PER_OBJECT,
    ConfigurationManager,
    LoadedConfig,
)
from repro.xpp.objects import DataflowObject, Probe
from repro.xpp.port import DEFAULT_CAPACITY, Wire
from repro.xpp.ram import RAM_WORDS, FifoPae, RamPae
from repro.xpp.router import Router
from repro.xpp.scheduler import (
    SCHEDULER_ENV,
    EventScheduler,
    NaiveScheduler,
    make_scheduler,
)
from repro.xpp.diagnose import StallInfo, deadlock_report, diagnose
from repro.xpp.nml import dump_nml, parse_nml
from repro.xpp.power import (
    PowerEstimate,
    array_power,
    attribute_energy,
    dsp_energy_pj,
    dsp_kernel_instructions,
    energy_at,
)
from repro.xpp.simulator import ExecResult, Simulator, SinksDone, execute
from repro.xpp.stats import (
    STOP_MAX_CYCLES,
    STOP_QUIESCENT,
    STOP_UNTIL,
    RunStats,
)
from repro.xpp.vc import compile_dataflow, run_dataflow
from repro.xpp.visual import render_array, render_config, render_occupancy

__all__ = [
    "CONFIG_CYCLES_PER_OBJECT",
    "DEFAULT_CAPACITY",
    "RAM_WORDS",
    "AluPae",
    "ConfigBuilder",
    "Configuration",
    "ConfigurationError",
    "ConfigurationManager",
    "DataflowObject",
    "EventScheduler",
    "ExecResult",
    "FifoPae",
    "LoadedConfig",
    "MemoryPort",
    "NaiveScheduler",
    "Probe",
    "RamPae",
    "ResourceError",
    "Router",
    "RoutingError",
    "RunStats",
    "SimulationError",
    "Simulator",
    "SinksDone",
    "Slot",
    "StreamSink",
    "StreamSource",
    "Wire",
    "PowerEstimate",
    "XppArray",
    "XppError",
    "StallInfo",
    "SCHEDULER_ENV",
    "STOP_MAX_CYCLES",
    "STOP_QUIESCENT",
    "STOP_UNTIL",
    "array_power",
    "attribute_energy",
    "compile_dataflow",
    "deadlock_report",
    "diagnose",
    "dsp_energy_pj",
    "dsp_kernel_instructions",
    "dump_nml",
    "energy_at",
    "execute",
    "make_alu",
    "make_scheduler",
    "opcodes",
    "parse_nml",
    "render_array",
    "render_config",
    "render_occupancy",
    "run_dataflow",
]
