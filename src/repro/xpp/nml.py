"""NML — the textual configuration entry of the XPP design flow.

The paper's Fig. 3 shows configurations entering the flow as NML
(Native Mapping Language) next to the C path.  This module implements a
line-oriented NML dialect for the simulator: object declarations with
parameters, and routed connections with optional wire capacity.

Example::

    config descrambler
    source code
    source data bits=24
    alu code_mux LUT table=[5,1,7,3]
    alu mul CMUL shift=1
    sink out expect=16

    connect code.out0 -> code_mux.index
    connect code_mux.out0 -> mul.b capacity=4
    connect data.out0 -> mul.a
    connect mul.out0 -> out.in

:func:`parse_nml` builds a :class:`~repro.xpp.config.Configuration`;
:func:`dump_nml` serialises one back to text (a parse/dump round trip
is stable).
"""

from __future__ import annotations

import re
from typing import Any

from repro.xpp import alu as alu_mod
from repro.xpp.alu import make_alu
from repro.xpp.config import Configuration
from repro.xpp.errors import ConfigurationError
from repro.xpp.io import StreamSink, StreamSource
from repro.xpp.objects import Probe
from repro.xpp.port import DEFAULT_CAPACITY
from repro.xpp.ram import FifoPae, RamPae

_CONNECT_RE = re.compile(
    r"^connect\s+(\w+)\.(\w+)\s*->\s*(\w+)\.(\w+)(?:\s+capacity=(\d+))?$")

#: Bracket-nesting limit for parameter values.  No real netlist nests
#: lists at all; the guard turns fuzzer inputs like ``[[[[...`` into a
#: :class:`ConfigurationError` instead of a ``RecursionError``.
_MAX_LIST_DEPTH = 32


def _parse_value(text: str, _depth: int = 0) -> Any:
    """Parse one parameter value: int, bool, list of ints, or string."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        if _depth >= _MAX_LIST_DEPTH:
            raise ConfigurationError(
                f"parameter list nested deeper than {_MAX_LIST_DEPTH}")
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_value(v, _depth + 1) for v in inner.split(",")]
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    try:
        return int(text, 0)
    except ValueError:
        return text


def _parse_params(tokens: list) -> dict:
    params = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigurationError(f"malformed parameter {tok!r}")
        key, _, value = tok.partition("=")
        params[key] = _parse_value(value)
    return params


def _split_decl(line: str) -> list:
    """Split a declaration line, keeping [...] lists intact."""
    tokens, depth, cur = [], 0, ""
    for ch in line:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch.isspace() and depth == 0:
            if cur:
                tokens.append(cur)
                cur = ""
        else:
            cur += ch
    if cur:
        tokens.append(cur)
    return tokens


def _port_key(token: str):
    """Port reference: a name or in0/out0-style index."""
    m = re.fullmatch(r"(in|out)(\d+)", token)
    if m:
        return int(m.group(2))
    return token


def parse_nml(text: str) -> Configuration:
    """Parse NML text into a configuration (validated)."""
    cfg = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = _split_decl(line)
        kind = tokens[0]
        try:
            if kind == "config":
                if cfg is not None:
                    raise ConfigurationError("duplicate 'config' line")
                cfg = Configuration(tokens[1])
                continue
            if cfg is None:
                raise ConfigurationError("missing 'config <name>' header")
            if kind == "connect":
                m = _CONNECT_RE.match(line)
                if not m:
                    raise ConfigurationError(f"malformed connect: {line!r}")
                src, sp, dst, dp, cap = m.groups()
                cfg.connect(cfg.object(src), _port_key(sp),
                            cfg.object(dst), _port_key(dp),
                            capacity=int(cap) if cap else DEFAULT_CAPACITY)
            elif kind == "alu":
                name, opcode = tokens[1], tokens[2]
                cfg.add(make_alu(name, opcode, **_parse_params(tokens[3:])))
            elif kind == "source":
                params = _parse_params(tokens[2:])
                cfg.add(StreamSource(tokens[1],
                                     bits=params.get("bits", 24)))
            elif kind == "sink":
                params = _parse_params(tokens[2:])
                cfg.add(StreamSink(tokens[1],
                                   expect=params.get("expect")))
            elif kind == "ram":
                cfg.add(RamPae(tokens[1], **_parse_params(tokens[2:])))
            elif kind == "fifo":
                cfg.add(FifoPae(tokens[1], **_parse_params(tokens[2:])))
            elif kind == "probe":
                cfg.add(Probe(tokens[1]))
            else:
                raise ConfigurationError(f"unknown declaration {kind!r}")
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            # TypeError/ValueError cover constructor kwargs that parse
            # but do not fit (unknown names, wrong-typed values) — a
            # hostile netlist must fail structured, never crash
            raise ConfigurationError(
                f"NML line {lineno}: {raw.strip()!r}: {exc}") from exc
        except ConfigurationError as exc:
            raise ConfigurationError(f"NML line {lineno}: {exc}") from exc
    if cfg is None:
        raise ConfigurationError("empty NML text")
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def _fmt_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt_value(v) for v in value) + "]"
    return str(value)


def _alu_params(obj) -> dict:
    """Recover constructor parameters from an ALU object."""
    params = {}
    if isinstance(obj, alu_mod.BinaryAlu):
        if obj.const is not None:
            params["const"] = obj.const
        if obj.shift:
            params["shift"] = obj.shift
    elif isinstance(obj, alu_mod.ShiftAlu):
        params["amount"] = obj.amount
    elif isinstance(obj, alu_mod.LutAlu):
        params["table"] = obj.table
    elif isinstance(obj, alu_mod.ComplexMul):
        if obj.shift:
            params["shift"] = obj.shift
        if obj.conj_b:
            params["conj_b"] = True
    elif isinstance(obj, (alu_mod.ComplexAdd, alu_mod.ComplexSub)):
        if obj.shift:
            params["shift"] = obj.shift
    elif isinstance(obj, alu_mod.ComplexMulJ):
        params["sign"] = obj.sign
    elif isinstance(obj, alu_mod.ComplexShift):
        params["amount"] = obj.amount
    elif isinstance(obj, alu_mod.Counter):
        defaults = {"start": 0, "step": 1, "limit": None, "count": None}
        for key, default in defaults.items():
            value = getattr(obj, key)
            if value != default:
                params[key] = value
        if obj.mode != "wrap":
            params["mode"] = obj.mode
    elif isinstance(obj, alu_mod.Const):
        params["value"] = obj.value
        if obj.count is not None:
            params["count"] = obj.count
    elif isinstance(obj, alu_mod.Seq):
        params["values"] = obj.values
        if obj.circular:
            params["circular"] = True
    elif isinstance(obj, (alu_mod.Acc, alu_mod.ComplexAcc)):
        params["length"] = obj.length
        if obj.shift:
            params["shift"] = obj.shift
    elif isinstance(obj, alu_mod.Integrator):
        if obj._sum:
            params["init"] = obj._sum
    elif isinstance(obj, alu_mod.Reg):
        if obj._preload:
            params["init"] = list(obj._preload)
    if isinstance(obj, alu_mod.ComplexAlu) and obj.half_bits != 12:
        params["half_bits"] = obj.half_bits
    return params


def _decl_line(obj) -> str:
    if isinstance(obj, StreamSource):
        extra = f" bits={obj.bits}" if obj.bits != 24 else ""
        return f"source {obj.name}{extra}"
    if isinstance(obj, StreamSink):
        extra = f" expect={obj.expect}" if obj.expect is not None else ""
        return f"sink {obj.name}{extra}"
    if isinstance(obj, Probe):
        return f"probe {obj.name}"
    if isinstance(obj, RamPae):
        parts = [f"ram {obj.name}", f"words={obj.words}"]
        if obj.bits != 24:
            parts.append(f"bits={obj.bits}")
        if any(obj._mem):
            parts.append(f"preload={_fmt_value(obj._mem)}")
        return " ".join(parts)
    if isinstance(obj, FifoPae):
        parts = [f"fifo {obj.name}", f"depth={obj.depth}"]
        if obj.bits != 24:
            parts.append(f"bits={obj.bits}")
        if obj.circular:
            parts.append("circular=true")
        if len(obj):
            parts.append(f"preload={_fmt_value(list(obj._q))}")
        return " ".join(parts)
    params = _alu_params(obj)
    parts = [f"alu {obj.name} {obj.OPCODE}"]
    parts.extend(f"{k}={_fmt_value(v)}" for k, v in params.items())
    return " ".join(parts)


def dump_nml(config: Configuration) -> str:
    """Serialise a configuration to NML text.  Memory images, FIFO
    contents and register preloads are the live ones, settled first, so
    an export after a run reads the same on every scheduler."""
    config.settle()
    lines = [f"config {config.name}"]
    for obj in config.objects:
        lines.append(_decl_line(obj))
    lines.append("")
    for wire in config.wires:
        src, _, dst = wire.name.partition("->")
        src_obj, src_port = src.rsplit(".", 1)
        dst_obj, dst_port = dst.rsplit(".", 1)
        cap = f" capacity={wire.capacity}" \
            if wire.capacity != DEFAULT_CAPACITY else ""
        lines.append(f"connect {src_obj}.{src_port} -> "
                     f"{dst_obj}.{dst_port}{cap}")
    return "\n".join(lines) + "\n"
