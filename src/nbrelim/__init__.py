"""Exact-arithmetic iterated elimination of never-best-response strategies.

A library and CLI for finite strategic games: three reduction relations
(better responses drawn from the initial game, the current restriction, or the
reduced restriction), three belief systems (pure opponent profiles,
independent mixed strategies, correlated distributions), certified
best-response oracles over exact rationals, and executable checkers for the
order-independence, equivalence, and equilibrium-preservation guarantees.
"""

from .beliefs import (
    Belief,
    BeliefKind,
    DistributionBelief,
    ProductBelief,
    PurePoint,
    expected_payoff,
    render_belief,
)
from .games import (
    FiniteGame,
    FormatError,
    InputError,
    JointProfile,
    Rational,
    Restriction,
    full_restriction,
    parse_game,
    parse_rational,
    render_game,
    render_rational,
    restrict,
    restrict_by_labels,
)
from .oracle import (
    BestResponse,
    Certificate,
    ComparisonSet,
    EmptyBeliefSet,
    Inconclusive,
    NeverBest,
    OracleCache,
    find_witness,
    full_comparison,
    is_best_response,
)
from .reductions import (
    IllegalStepError,
    Policy,
    ReductionKind,
    Rejection,
    Step,
    Trace,
    UnsupportedOperationError,
    iterate,
    legal_removal_candidates,
    validate_step,
)
from .verification import (
    TheoremReport,
    check_equivalence,
    check_fast_dominance,
    check_kind_monotonicity,
    check_nash_preservation,
    check_oracle_agreement,
    check_order_independence,
    is_closed,
    pure_nash,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
