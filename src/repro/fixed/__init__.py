"""Fixed-point arithmetic substrate.

The XPP array in the paper is a 24-bit integer machine; rake and OFDM
kernels use 12-bit I/Q samples and per-stage scaling.  This package
provides the two's-complement word arithmetic those kernels run on:
wrap/saturate primitives, quantisation between float and fixed domains,
and complex fixed-point helpers.
"""

from repro.fixed.word import (
    WORD_BITS,
    FixedFormat,
    bit_range,
    from_fixed,
    max_value,
    min_value,
    rshift_round,
    saturate,
    to_fixed,
    wrap,
    wrap_list,
)
from repro.fixed.complexfx import (
    cmac,
    cmul,
    complex_from_fixed,
    complex_to_fixed,
    pack_array,
    pack_complex,
    quantize_complex,
    unpack_array,
    unpack_complex,
)

__all__ = [
    "WORD_BITS",
    "FixedFormat",
    "bit_range",
    "cmac",
    "cmul",
    "complex_from_fixed",
    "complex_to_fixed",
    "from_fixed",
    "max_value",
    "min_value",
    "pack_array",
    "pack_complex",
    "quantize_complex",
    "rshift_round",
    "saturate",
    "to_fixed",
    "unpack_array",
    "unpack_complex",
    "wrap",
    "wrap_list",
]
