"""Oriented firefighting on graphs.

A library and CLI for the game where the defender first orients every edge
of a graph, a fire then breaks out at an adversarial vertex, and f vertices
are protected per time unit while the fire spreads along arcs. Provides the
constructive orientations with guaranteed outdegree structure, a spread
simulator with the scripted defences, exact optimal-play solving for a fixed
orientation and over all orientations of small graphs, and exact evaluation
of the closed-form bounds.
"""

from .bounds import (
    BoundEntry,
    beta_d_ladder,
    bound_report,
    check_sandwich,
    classify_b1,
    complete_upper_bound,
    lower_bounds,
    refined_colour_bound,
    upper_bounds,
    wave_total,
)
from .game import FireState, FireTrace, ReplayResult, Strategy, StrategyFault, replay, simulate
from .families import FAMILIES, enumerate_connected
from .graphs import (
    Graph,
    GraphError,
    Orientation,
    ParseError,
    bridges,
    canonical_form,
    distances,
    orientation_from_bits,
    read_graph,
    read_orientation,
    to_dot,
    write_graph,
    write_orientation,
)
from .orient import (
    RECIPES,
    orient_bipartite,
    orient_bounded_degree,
    orient_by_colouring,
    orient_by_forests,
    orient_by_fvs,
    orient_complete,
    orient_grid,
    orient_half,
    orient_ktree,
    orient_subcubic,
    orient_tree,
    orient_unicyclic,
)
from .solve import (
    GameValue,
    SolverLimitError,
    naive_best_orientation,
    naive_solve_orientation,
    solve_best_orientation,
    solve_orientation,
    solve_undirected,
)
from .strategies import STRATEGIES, make_strategy
from .structure import (
    KTreeStructure,
    bipartition,
    exact_colouring,
    forest_peel,
    greedy_colouring,
    ktree_structure,
    min_fvs,
    perfect_matching,
)
from .verify import SUITES, SuiteResult, run_suite

__version__ = "0.1.0"
