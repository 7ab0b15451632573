"""Satisfaction equilibria of Gaussian interference channel power games."""

from .model import (
    GameSpec,
    InvalidInputError,
    RawChannel,
    cost_ratios,
    game_from_raw,
    interference,
    min_satisfying_powers,
    normalize,
    satisfied_mask,
    utilities,
)
from .analysis import (
    DimensionError,
    EquilibriumReport,
    NoEquilibriumError,
    analyze,
    ese_two_player,
    exists_two_player,
    is_efficient_se,
    is_satisfaction_equilibrium,
    is_valued_se,
    satisfaction_response_dynamics,
    satisfaction_response_iterates,
    solve_ese,
)
from .oracle import OracleResult, ResourceLimitError, enumerate_grid
from .metrics import max_price_of_satisfaction, price_of_efficiency
from .scenario import ScenarioError, load_scenario, write_scenario

__version__ = "0.1.0"
