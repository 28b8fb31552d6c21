"""Semantic exception hierarchy.

Every error carries a machine-readable ``name`` used by the CLI when writing
diagnostics ("error: <name>: <detail>").
"""


class HardyConstError(Exception):
    """Base class for all errors raised by this package."""

    name = "error"


class DomainError(HardyConstError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""

    name = "domain-error"


class OutsideDomainError(DomainError):
    """The parameter point is not strictly inside the admissible region."""

    name = "outside-domain"


class SingularityError(DomainError):
    """Evaluation requested exactly at a singular point of the formula."""

    name = "singularity"


class InfeasibleTauError(HardyConstError):
    """The reparameterization tau left [0, 1], where omega_q is undefined."""

    name = "infeasible-tau"


class NoRootError(HardyConstError):
    """The implicit equation has no root with 1 < t < p/(p-1) and tau < 1.

    Treated as a domain exclusion, not a solver defect: beyond the no-root
    cutoff, the band along the lower curve at large s2, a root would need
    tau >= 1.  ``solver.has_root`` decides the cutoff exactly, as the sign
    of the explicit equation g(u) just below u = 1 (tau = 1); a root within
    1e-14 p/(p-q) of tau = 1, where tau rounds to 1, counts as none.
    """

    name = "no-root"


class BoundaryCaseError(HardyConstError):
    """A step function induced a boundary parameter point (e.g. constant h)."""

    name = "boundary-case"


class InconsistentMomentsError(HardyConstError, ValueError):
    """Moment values violate the power-mean chain beyond rounding tolerance."""

    name = "inconsistent-moments"


class StencilError(HardyConstError):
    """A finite-difference stencil point left the admissible region."""

    name = "stencil"


class ConvergenceError(HardyConstError, RuntimeError):
    """An iteration cap was exceeded; indicates an internal defect."""

    name = "internal"
