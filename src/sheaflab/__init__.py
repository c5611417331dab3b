"""Deterministic connection-Laplacian sheaves and fixed-sheaf diffusion classifiers."""

from .data import Dataset, Split, generate_splits, load_dataset, save_dataset, synth_sbm
from .errors import DataError, GuardError
from .graph import Graph, from_edge_list, homophily
from .laplacian import (
    BlockLaplacian,
    apply,
    dirichlet_energy,
    normalise,
    sheaf_laplacian,
    spectrum,
    write_laplacian_coo,
)
from .model import (
    ForwardCache,
    TrainConfig,
    accuracy,
    backward,
    build_operator,
    cross_entropy,
    cross_entropy_grad,
    encode,
    forward,
    init_params,
    train,
)
from .sheaf import (
    Sheaf,
    align,
    build_connection_sheaf,
    haar_orthogonal,
    neighbourhood_with_padding,
    node_sheaf_from_matrices,
    random_edge_sheaf,
    random_node_sheaf,
    read_sheaf_csv,
    trivial_sheaf,
    write_sheaf_csv,
)

__version__ = "0.1.0"
