"""Finite-scale embeddability workbench.

Everything operates on finite metric spaces with explicitly stored
distances; every claimed inequality is evaluated and recorded, never
assumed.
"""

from types import ModuleType as _ModuleType

from .errors import (BoundViolationError, CoarseLabError, DisconnectedGraphError,
                     MetricAxiomError, PreconditionError, ValidationError)
from .report import InequalityRecord, all_passed, check_le
from .space import (CoarseMapCert, FiniteMetricSpace, StepModulus, check_coarse_map,
                    cycle, grid, space_from_graph, space_from_matrix, z2_ball, z_interval)
from .cover import (ChainOfSubspaces, Cover, DirectLimitResult, direct_limit_cover,
                    enlarge, lebesgue_report, multiplicity, r_multiplicity,
                    set_distance)
from .partition import (PartitionOfUnity, bell_lipschitz_constant, bell_partition,
                        partition_variation_profile, pullback_partition)
from .witness import (DecayProfile, Witness, collapse, dirac_witness, tail_profile,
                      transport, uniform_ball_witness, variation_profile)
from .construct import (FiberingResult, GlueInput, GlueResult, NetWitnessResult,
                        SeparatedResult, SubspaceWitnessResult, fibering_pipeline,
                        glue_with_report, net_construction, separated_cover_pipeline,
                        subspace_construction)
from .group import (CoarseQuasiAction, GroupModel, GroupPipelineResult,
                    OrbitMapResult, QuasiStabilizer, certify_quasi_action,
                    cyclic_group, free_group_ball,
                    group_pipeline, left_translation, orbit_map, product_of_cyclic,
                    quasi_stabilizer, word_metric_space, z_ball)
from .jsonio import (dumps_deterministic, load_action_maps, load_chain,
                     load_cover, load_group, load_map_assignment, load_space,
                     load_witness, partition_to_json)

__version__ = "0.1.0"

# the names imported above; the submodules bound by those imports are not API
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
