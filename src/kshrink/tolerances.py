"""Central numeric tolerances.

Every tolerance that more than one module relies on lives here, in one
place, instead of as magic numbers in each module.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numeric guards shared across the package.

    symmetry: max allowed relative asymmetry ||M - M^T|| / ||M|| for an
        input matrix before it is rejected.
    identity_rel: relative tolerance for internal self-consistency checks
        (e.g. the decomposition of the pooled quadratic forms).
    max_condition: condition-number ceiling above which a matrix inversion
        is refused rather than silently degraded.
    quad_rel: acceptance tolerance of the Gauss-Jacobi rule behind the
        hierarchical Bayes factors: phi and psi of two consecutive node
        counts of the rule must agree within it, relative. It bounds that
        agreement, not the error of an accepted point, which has been
        measured at up to 1.07e-5 relative (see numerics.hb2_factors).
    degenerate_stat: pooled statistics below this switch the shrinkage
        ratios to their exact series limits.
    """

    symmetry: float = 1e-10
    identity_rel: float = 1e-8
    max_condition: float = 1e12
    quad_rel: float = 1e-6
    degenerate_stat: float = 1e-10


DEFAULT = Tolerances()
