"""barygap: exact generalized Wasserstein barycenters of small discrete
measures, plus the clique-gap gadget pipeline that stress-tests them."""

from .bary import (
    BaryInstance,
    DiscreteMeasure,
    TransportTensor,
    bary_value_mot,
    barycenter_objective,
    borgwardt_2approx,
    extract_barycenter,
    ot_cost,
    uniformize,
    wasserstein_pq,
)
from .chub import ChubResult, chub_closed_form_22, solve_chub
from .embed import (
    Collection,
    PointConfig,
    add_edge_move,
    canonical_clique_collection,
    collection_from_pattern,
    embed_auto,
    embed_phi,
    embed_psi,
    embed_xi,
    q1_clique_witness,
    q1_value_formula,
    qinf_clique_witness,
    verify_collection,
)
from .errors import BarygapError, InputError, ResourceCapError, SolverError
from .fpq import (
    FpqProblem,
    FpqSolution,
    fpq_closed_form_22,
    fpq_gradient,
    fpq_objective,
    solve_fpq,
    solve_fpq_many,
    solve_fpq_values,
)
from .graph import (
    Graph,
    circulant_graph,
    complete_graph,
    cycle_graph,
    even_k_doubling,
    has_k_clique,
    induced_edge_count,
    max_multiset_edges,
    petersen_graph,
    random_regular_graph,
)
from .reduction import (
    GapCertificate,
    ReductionInstance,
    build_instance,
    decide_clique,
    gap_certificate,
    oracle_decision,
)
from .verify import verify_lemma

__version__ = "0.1.0"
