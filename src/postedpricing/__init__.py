"""Posted-price mechanisms for budget-feasible procurement under cost priors."""

from .distributions import (CostDistribution, IronedCurve,
                            PiecewiseLinearCDF, PriceLotteries,
                            TruncatedExponential, Uniform,
                            empirical_from_sample, iron, ironed_curve,
                            two_price_lottery, DEFAULT_GRID)
from .exante import (ExAnteSolution, discretize, greedy_submodular,
                     solve_additive, solve_ex_ante, solve_symmetric,
                     solver_kind)
from .mechanism import (MarketSize, PriceMenu, RunOutcome, bang_per_buck_order,
                        build_oblivious, choose_epsilon, derandomize_additive,
                        market_size, mechanism_menu, mechanism_variant,
                        menu_from_solution, oblivious_guarantee,
                        reduce_lottery_pairs, run, select_within_budget,
                        sequential_guarantee)
from .simulate import (BoundsRow, ExperimentReport, GapResult, Instance,
                       MCResult, OverflowEstimate, approximation_report,
                       bounds_table, correlation_gap_experiment, ex_ante_bound,
                       monte_carlo_value, overflow_probability, simulate_runs)
from .values import (AdditiveValue, CoverageValue, OracleValue, SymmetricValue,
                     ValueFunction, concave_closure_symmetric, concave_hull_sizes)

__version__ = "0.1.0"
