"""Exception hierarchy.

Every exception carries enough context (the violated invariant and its
magnitude, or a witness) to be actionable without re-running the computation.
"""

import math


class CtqrwError(Exception):
    """Base class for all errors raised by this package."""


class NonHermitianError(CtqrwError):
    """Matrix is not Hermitian within tolerance; carries the max defect."""

    def __init__(self, defect: float):
        self.defect = defect
        super().__init__(f"matrix is not Hermitian: max |M - M^dag| = {defect:.3e}")


class NonUnitTraceError(CtqrwError):
    """Trace differs from 1; carries the actual trace."""

    def __init__(self, trace: complex):
        self.trace = trace
        super().__init__(f"trace is {trace:.12g}, expected 1")


class NegativeEigenvalueError(CtqrwError):
    """State has an eigenvalue below tolerance; carries the magnitude."""

    def __init__(self, eigenvalue: float):
        self.eigenvalue = eigenvalue
        super().__init__(f"negative eigenvalue {eigenvalue:.3e}")


class DimMismatchError(CtqrwError):
    """Operator dimensions are inconsistent."""


class ClosureDefectError(CtqrwError):
    """Kraus closure sum C_i^dag C_i deviates from the identity."""

    def __init__(self, defect: float):
        self.defect = defect
        super().__init__(f"Kraus closure defect {defect:.3e}")


class BadWeightsError(CtqrwError):
    """Mixture weights are negative or do not sum to one."""


class NotCPError(CtqrwError):
    """Map is not completely positive; carries the Choi defect."""

    def __init__(self, cp_defect: float):
        self.cp_defect = cp_defect
        super().__init__(f"map is not completely positive: Choi min eigenvalue {cp_defect:.3e}")


class DefectiveGeneratorError(CtqrwError):
    """Generator is not diagonalizable (Jordan block detected)."""


class DangerousKernelError(CtqrwError):
    """The kernel has no waiting law: its dual waiting-time density is not a
    distribution, so no renewal process drives it.  Carries the `witness`
    of the failed check."""

    def __init__(self, message: str, witness: dict):
        self.witness = witness
        super().__init__(message)


class NotADistributionError(DangerousKernelError):
    """Waiting-time density goes negative; carries a witness time, the
    value there, and any `extra` witness entries after those two.  A
    ``log10_abs_w`` entry is printed too: a value that underflows the float
    range is clamped, and only its logarithm keeps the magnitude."""

    def __init__(self, witness_t: float, value: float, **extra):
        self.witness_t, self.value = witness_t, value
        log = f", log10|w(t)| = {extra['log10_abs_w']:.6g}," if "log10_abs_w" in extra else ""
        message = f"the waiting density is negative: w(t) = {value:.3e} < 0{log} at t = {witness_t:.6g}"
        super().__init__(message, {"t": witness_t, "w_value": value, **extra})


class SubordinationUnavailableError(CtqrwError):
    """Kernel admits no pointwise subordination density."""


class DomainError(CtqrwError):
    """Argument outside the supported domain."""


class InversionError(CtqrwError):
    """Two fixed-Talbot contours disagree; carries the time and the difference."""

    def __init__(self, t: float, difference: float):
        self.t, self.difference = t, difference
        gap = f"differ by {difference:.3e}" if math.isfinite(difference) else "are not finite"
        super().__init__(f"fixed-Talbot inversion is not certified at t = {t:.6g}: its sums {gap}")


class TruncationError(CtqrwError):
    """Requested series tolerance unreachable with the allowed truncation."""


class UnsupportedKernelError(CtqrwError):
    """Closed forms exist only for the built-in kernel variants."""


class UnstableStepError(CtqrwError):
    """Time step exceeds the stability bound (trace drift detected)."""


class BadParametersError(CtqrwError):
    """Model parameters outside their documented ranges."""


class BadMomentsError(CtqrwError):
    """Jump-moment set is inconsistent (e.g. <|b|^2> < |<b>|^2)."""


class ConfigError(CtqrwError):
    """Experiment configuration is malformed; message names the key."""


class ManifestError(CtqrwError):
    """A run manifest does not fit ``manifest_schema.json`` (or the schema
    uses a keyword the checker does not implement); the message names the
    path, e.g. ``manifest.seeds[0]``.  ctqrw builds every manifest itself,
    so this is a bug in ctqrw, not a failure of the run's numerics."""
