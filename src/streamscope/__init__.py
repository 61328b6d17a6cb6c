"""Estimators for random-order edge streams with exact verification oracles.

The library collects canonical per-root structures (BFS trees, bounded
discs) from a single pass over a uniformly shuffled edge stream, decides
acceptance against a binomially drawn phase threshold, and rescales the
surviving indicators into estimates of component counts, spanning weight,
disc-type frequencies and independent-set size. Everything verifiable at
desk scale is checked: exhaustive permutation enumeration, Monte Carlo
agreement, replay identities and exact combinatorial oracles.
"""

from .canonical import (DiscType, RootedDisc, RootedTree, bounded_disc_codes,
                        cano_disc, cbfs_tree, disc_code, is_violating_disc,
                        is_violating_tree, materialize_disc,
                        project_extended_disc)
from .detectors import DetectorGrid, DiscDetector, TreeDetector
from .enumeration import (OutcomeDistribution, enumerate_outcomes,
                          montecarlo_outcomes)
from .estimators import (DiscReport, EstimateReport, EstimatorParams,
                         MisReport, MstReport, cc_param_scales,
                         disc_param_scales, disc_report_from_exact, gamma_disc,
                         gamma_k, mis_estimate, mst_weight, num_cc, num_disc)
from .graphs import (Edge, Graph, edge, load_edge_list, serialize_edge_list,
                     truncate_high_degree)
from .oracles import (exact_bounded_disc_freq, exact_cc_histogram,
                      exact_disc_freq, exact_mis, kruskal_mst,
                      make_component_mis_oracle, mst_identity_value)
from .streams import EdgeStream, shuffle_stream, split_seed, threshold_view

__version__ = "0.1.0"
