"""Finite-scale embeddability workbench.

Everything operates on finite metric spaces with explicitly stored
distances; every claimed inequality is evaluated and recorded, never
assumed.
"""

from .errors import (BoundViolationError, CoarseLabError, DisconnectedGraphError,
                     MetricAxiomError, PreconditionError, SearchInconclusiveError,
                     ValidationError)
from .report import InequalityRecord, all_passed, check_le
from .space import (CoarseMapCert, FiniteMetricSpace, StepModulus, build_space,
                    check_coarse_map, cycle, grid, is_c_net, space_from_graph,
                    space_from_matrix, z2_ball, z_interval)
from .cover import (AsdimSearchResult, ChainOfSubspaces, Cover, DirectLimitResult,
                    asdim_cover_search, check_kl_separated, direct_limit_cover,
                    enlarge, has_lebesgue_at_least, is_l_separated, lebesgue_number,
                    lebesgue_report, multiplicity, piece_diameter, r_multiplicity,
                    set_distance)
from .partition import (PartitionOfUnity, bell_lipschitz_constant, bell_partition,
                        partition_variation, partition_variation_profile,
                        partition_variation_with_pair, pullback_partition)
from .witness import (DecayProfile, Witness, WitnessFamily, collapse, dirac_witness,
                      equi_profiles, tail_profile, transport, uniform_ball_witness,
                      variation_profile)
from .construct import (FiberingResult, GlueInput, GlueResult, NetWitnessResult,
                        SeparatedResult, SubspaceWitnessResult, dirac_piece_family,
                        fibering_pipeline, glue, glue_with_report, make_glue_input,
                        net_construction, separated_cover_pipeline,
                        subspace_construction, uniform_ball_piece_family)
from .group import (CoarseQuasiAction, GroupModel, GroupPipelineResult,
                    OrbitMapResult, QuasiStabilizer, certify_quasi_action,
                    cyclic_group, free_group_ball,
                    group_pipeline, left_translation, orbit_map, product_of_cyclic,
                    quasi_stabilizer, word_metric_space, z_ball)
from .jsonio import (dumps_deterministic, load_action_maps, load_chain_stages,
                     load_cover, load_group, load_map_assignment, load_space,
                     load_witness, partition_to_json, witness_to_json)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
