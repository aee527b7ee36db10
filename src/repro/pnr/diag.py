"""The place-and-route rejection: a :class:`PnrError` of coded diagnostics.

The codes and the :class:`~repro.diagnostics.Diagnostic` record live in
the registry shared with the fastpath backend, :mod:`repro.diagnostics`.
The compiler front end (:mod:`repro.pnr.check`) collects *all*
diagnostics for a graph instead of stopping at the first, so one
compile run reports every legality problem at once; the fuzz contract
is that a hostile graph always surfaces as a :class:`PnrError`
carrying coded diagnostics, never as a crash.
"""

from __future__ import annotations

from repro.diagnostics import PNR_MALFORMED, Diagnostic
from repro.xpp.errors import XppError


class PnrError(XppError):
    """A kernel graph failed to compile.

    Carries the full diagnostic list; ``codes`` is the sorted set of
    distinct codes for quick assertions and tooling.  ``report`` is the
    compile pipeline's :class:`~repro.diagnostics.CompileReport` (None
    when the graph payload never became a graph).
    """

    def __init__(self, diagnostics, report=None):
        self.diagnostics = list(diagnostics)
        self.report = report
        if not self.diagnostics:    # defensive: an empty rejection is a bug
            self.diagnostics = [Diagnostic(PNR_MALFORMED, "unspecified")]
        summary = "; ".join(str(d) for d in self.diagnostics[:4])
        extra = len(self.diagnostics) - 4
        if extra > 0:
            summary += f" (+{extra} more)"
        super().__init__(f"graph does not compile: {summary}")

    @property
    def codes(self) -> list:
        return sorted({d.code for d in self.diagnostics})
