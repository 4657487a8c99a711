"""Exception hierarchy shared across the reproduction.

The simulated CUDA substrate raises the same *kinds* of errors the real
driver raises, so that code exercising Medusa's restoration paths fails in
realistic ways (illegal memory accesses, capture violations, unresolved
symbols) rather than with generic asserts.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Simulated CUDA errors
# ---------------------------------------------------------------------------

class CudaError(ReproError):
    """Base class for simulated CUDA driver/runtime errors."""


class OutOfMemoryError(CudaError):
    """Device memory exhausted (cudaErrorMemoryAllocation)."""


class IllegalMemoryAccessError(CudaError):
    """A kernel dereferenced a pointer that maps to no live buffer."""


class InvalidValueError(CudaError):
    """An API argument was invalid (cudaErrorInvalidValue)."""


class CaptureViolationError(CudaError):
    """A prohibited operation (e.g. synchronization) ran during capture.

    This mirrors ``cudaErrorStreamCaptureUnsupported`` and friends: device or
    stream synchronization — including the implicit synchronization performed
    by first-time library initialization (e.g. cuBLAS) — invalidates an
    ongoing stream capture.  It is the reason warm-up forwarding must precede
    capturing (paper §2.3).
    """


class SymbolNotFoundError(CudaError):
    """dlsym()/cudaGetFuncBySymbol() could not resolve a kernel symbol.

    Raised for *hidden* kernels (e.g. cuBLAS internals) that are absent from
    their library's export table (paper §5).
    """


class ModuleNotLoadedError(CudaError):
    """A module was enumerated before any of its kernels forced it to load."""


class TriggerTimeoutError(CudaError):
    """A triggering-kernel launch exceeded its watchdog budget.

    The warm-up window launches triggering kernels purely for their module
    loading side effect (§5); a wedged launch there must not hang the cold
    start, so the restorer treats it as a fault and degrades instead."""


# ---------------------------------------------------------------------------
# Engine / Medusa errors
# ---------------------------------------------------------------------------

class EngineError(ReproError):
    """Base class for inference-engine errors."""


class SchedulingError(EngineError):
    """The event loop or the pool reached an inconsistent scheduling state."""


class MaterializationError(ReproError):
    """Base class for Medusa offline/online errors."""


class PointerAnalysisError(MaterializationError):
    """A node parameter pointer could not be mapped to an allocation index."""


class RestorationError(MaterializationError):
    """Online restoration failed (missing kernel, bad artifact, ...)."""


class ValidationError(MaterializationError):
    """The restored graph's output did not match eager forwarding (§4)."""


class ArtifactError(MaterializationError):
    """A materialization artifact is missing, truncated, or incompatible."""


class LintError(MaterializationError):
    """The static artifact verifier found error-severity diagnostics.

    Raised by the offline phase's lint-on-materialize gate — the
    diagnostics themselves live on the
    :class:`repro.analysis.LintReport` attached as ``report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
