"""Round-synchronous rumor spreading on graphs: neighbor-sampling protocols,
random-walk agent protocols, coupled simulations with verifiable transcripts,
and a seeded experiment harness."""

from .coupling import (CanonicalWalk, CouplingTranscript, VerifyReport,
                       compute_c_counters, compute_s_sets, max_congestion_dp,
                       reconstruct_min_chain_walk, run_coupled_even,
                       run_coupled_odd, transcript_dumps, transcript_from_json,
                       transcript_to_json, verify_tau_leq_c, verify_transcript)
from .errors import (ConfigError, FitError, GenerationFailureError,
                     InvalidParameterError, LoadError, RumorWalksError,
                     TranscriptCorruptError)
from .experiments import (DominationRow, ExperimentConfig, ExperimentResult,
                          GrowthFit, ModelFit, RatioPoint, TrialRow,
                          agent_config, build_graph, empirical_min,
                          fit_growth, fit_growth_points, format_config,
                          parse_config, parse_config_file, resolve_source,
                          result_to_csv, run_protocol, run_trials,
                          shared_walk_domination, sweep_ratio)
from .graphs import (Graph, generate_clique_path, generate_complete,
                     generate_cycle, generate_cycle_stars_cliques,
                     generate_double_star, generate_heavy_binary_tree,
                     generate_random_regular, generate_siamese_trees,
                     generate_star, load_edge_list, save_edge_list)
from .protocols import (AgentConfig, BroadcastResult, ProtocolTrace,
                        SharedWalkResult, default_round_cap, place_agents,
                        run_meet_exchange, run_push, run_push_pull,
                        run_r_visit_exchange, run_shared_visit_meet,
                        run_t_visit_exchange, run_visit_exchange, trace_events)
from .rng import ChoiceOracle, SimRng, derive_seed, place_stationary

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "RumorWalksError", "InvalidParameterError", "GenerationFailureError",
    "LoadError", "ConfigError", "FitError", "TranscriptCorruptError",
    # graphs
    "Graph", "generate_star", "generate_double_star",
    "generate_heavy_binary_tree", "generate_siamese_trees",
    "generate_cycle_stars_cliques", "generate_complete", "generate_cycle",
    "generate_clique_path", "generate_random_regular",
    "save_edge_list", "load_edge_list",
    # rng
    "derive_seed", "SimRng", "ChoiceOracle", "place_stationary",
    # protocols
    "AgentConfig", "ProtocolTrace", "BroadcastResult", "SharedWalkResult",
    "default_round_cap", "place_agents", "run_push", "run_push_pull",
    "run_visit_exchange", "run_meet_exchange", "run_t_visit_exchange",
    "run_r_visit_exchange", "run_shared_visit_meet", "trace_events",
    # coupling
    "CouplingTranscript", "CanonicalWalk", "VerifyReport",
    "run_coupled_even", "run_coupled_odd", "compute_s_sets",
    "compute_c_counters", "verify_tau_leq_c", "reconstruct_min_chain_walk",
    "max_congestion_dp", "transcript_to_json", "transcript_from_json",
    "transcript_dumps", "verify_transcript",
    # experiments
    "ExperimentConfig", "TrialRow", "ExperimentResult", "RatioPoint",
    "DominationRow", "GrowthFit", "ModelFit",
    "build_graph", "resolve_source", "agent_config", "run_protocol",
    "run_trials", "result_to_csv", "sweep_ratio", "fit_growth",
    "fit_growth_points", "empirical_min", "shared_walk_domination",
    "parse_config", "parse_config_file", "format_config",
]
