"""Exception types for the XPP array simulator."""


class XppError(Exception):
    """Base class for all XPP simulator errors."""


class ConfigurationError(XppError):
    """A configuration netlist is malformed (bad ports, double drivers...)."""


class ResourceError(XppError):
    """The array cannot satisfy a configuration's resource request, or a
    configuration attempted to claim resources owned by another one (the
    paper's 'configurations cannot be overwritten illegally' protocol)."""


class RoutingError(XppError):
    """The routing resources of a row/column are exhausted."""


class ConfigLoadError(XppError):
    """A configuration load failed or stalled in the configuration bus
    (injected by :mod:`repro.faults`; the manager itself raises
    :class:`ResourceError` for protocol violations).  Recovery policies
    retry these with backoff per the Fig. 10 swap protocol."""


class SimulationError(XppError):
    """Runtime protocol violation during simulation."""


class BatchRunError(SimulationError):
    """A batched configuration (a RAM-PAE reloaded with one image per
    member, :meth:`~repro.xpp.config.Configuration.reload`) was stepped
    or run toward an ``until`` predicate: a batch only runs to a stop,
    all members at once.  ``code`` is
    :data:`repro.diagnostics.BATCH_RUN`."""

    def __init__(self, message: str):
        from repro.diagnostics import BATCH_RUN
        super().__init__(message)
        self.code = BATCH_RUN
