"""Graph signal denoising, unrolled solvers, and the propagation rules they induce."""

from .bilevel_trainer import (
    Dataset,
    TrainConfig,
    TrainReport,
    UgdgnnParams,
    depth_sweep,
    karate_dataset,
    sbm_generate,
    train,
)
from .graph_core import (
    Graph,
    NormalizedOperators,
    add_self_loops,
    as_signal,
    load_edge_list,
    load_signal_csv,
    normalize,
    save_signal_csv,
    spmm,
)
from .gsd_problem import (
    GsdSpec,
    NonNegIndicator,
    RidgeComplement,
    RowL21,
    closed_form_ppnp,
    gradient_smooth,
    objective,
    smoothness_bound,
)
from .iter_solvers import (
    SolveConfig,
    SolveReport,
    gd_run,
    prox_nonneg,
    proxgd_run,
    row_shrink,
)
from .spectral_filters import (
    FilterCoeffs,
    apply_polynomial_filter,
    appnp_exact_expansion,
    frequency_response,
    gcnii_filter_weights,
    gcnii_linearized_apply,
    sgc_implied_theta,
    theta_to_ugdgnn,
)
from .unrolled_gnn import (
    MODEL_KINDS,
    AirGnn,
    Appnp,
    Gcn,
    GcnII,
    GprGnn,
    JkNet,
    LayerParams,
    Ppnp,
    Sgc,
    Ugdgnn,
    UnrollPlan,
    equivalence_check,
    forward,
    run_unrolled,
    sample_model,
    to_unroll_plan,
    ugdgnn_specialize,
)

__version__ = "0.1.0"
