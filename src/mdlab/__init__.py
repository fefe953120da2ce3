"""mdlab: a numerical laboratory for tail probabilities of self-normalized
random-walk maxima.

Subpackages by responsibility:

* :mod:`mdlab.distributions` - centered increment laws, closed-form
  truncated moments and tail probabilities, exponential tilting
* :mod:`mdlab.theory` - moment functionals, regime flags, normal tails
* :mod:`mdlab.oracle` - exact enumeration, Rademacher reflection closed
  form, TwoPoint first-passage DP
* :mod:`mdlab.mc` - reproducible (SFC64, seeded per chunk) Monte Carlo with
  importance sampling by an exponential tilt switched off at the first
  passage of the barrier
* :mod:`mdlab.experiments` - config-driven sweeps with resumable CSV output
* :mod:`mdlab.cli` - the ``mdlab`` command line
"""

__version__ = "0.1.0"

from .distributions import (  # noqa: F401
    CenteredExponential,
    Distribution,
    Rademacher,
    StudentT,
    TwoPoint,
    Uniform,
    from_literal,
)
from .errors import (  # noqa: F401
    BudgetExceededError,
    ConfigError,
    InfeasibleError,
    InfiniteMomentError,
    MdlabError,
    TiltUnsupportedError,
)
from .theory import (  # noqa: F401
    BlockPartition,
    SequenceSpec,
    TheoryQuantities,
    build_blocks,
    check_suffix_moment_ratios,
    check_tail_segment_ratio,
    compute_quantities,
    error_envelope,
    normal_tail,
    split_index,
)
