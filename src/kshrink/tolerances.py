"""Central numeric tolerances.

Every tolerance that more than one module relies on lives here, in one
place, instead of as magic numbers in each module. They are fixed: every
estimator and every step of a simulation runs under the same guards.
"""

SYMMETRY = 1e-10
"""Max allowed relative asymmetry ||M - M^T|| / ||M|| for an input matrix
before it is rejected."""

IDENTITY_REL = 1e-8
"""Relative tolerance for internal self-consistency checks (e.g. the
decomposition of the pooled quadratic forms)."""

MAX_CONDITION = 1e12
"""Condition-number ceiling above which a matrix inversion is refused
rather than silently degraded."""

QUAD_REL = 1e-6
"""Acceptance tolerance of the Gauss-Jacobi rule behind the hierarchical
Bayes factors: phi and psi of two consecutive node counts of the rule must
agree within it, relative. It bounds that agreement, not the error of an
accepted point, which has been measured at up to 1.07e-5 relative (see
numerics.hb2_factors)."""

DEGENERATE_STAT = 1e-10
"""Pooled statistics below this switch the shrinkage ratios to their exact
series limits."""
