"""Simulation toolkit for spectra of random biregular bipartite graphs.

Builds and samples (d1, d2)-biregular bipartite graphs and regular
hypergraphs, counts cycles and non-backtracking walk invariants exactly,
evaluates the half-argument Chebyshev identities linking those counts to the
scaled Gram spectrum, and runs Monte-Carlo experiments against the Poisson,
infinitely divisible, Gaussian, and semicircle limit laws.
"""

from .chebyshev import (
    ChebExpansion,
    basis_element,
    cheb_eval,
    cov_fg,
    fit_expansion,
    gamma_poly,
    m_f_n,
    mu_cnbw,
    p_poly,
    phi_poly,
    sigma_f,
)
from .graph import (
    BiregularGraph,
    complete_bipartite,
    full_adjacency,
    load_graph,
    save_graph,
    scaled_gram,
)
from .hypergraph import (
    RegularHypergraph,
    from_bipartite,
    hypergraph_cycle_count,
    sample_regular_hypergraph,
    to_bipartite,
)
from .sampler import (
    SamplerConfig,
    enumerate_all,
    sample_configuration,
    sample_graph,
    sample_switch_chain,
    trial_rng,
)
from .spectra import (
    SpectrumSample,
    eigenvalues,
    esd_distance,
    fluctuation_fixed,
    fluctuation_growing,
    identity_residuals,
    linear_statistic,
    reference_cdf,
    reference_density,
    spectral_edge_check,
)
from .switching import (
    Cycle,
    SwitchingSpec,
    apply_backward,
    apply_forward,
    count_valid_switchings,
    short_cycles,
    valid_switchings,
)
from .walks import (
    WalkCountTable,
    brute_force_walks,
    cnbw_counts_up_to,
    count_cycles,
    nbw_counts_up_to,
    walk_table,
)

__version__ = "0.1.0"
