"""Path-regularized multilayer networks: training, closed-form error bounds,
and independent verification oracles."""

from .netcore import (
    ActivationSpec,
    BiasedNet,
    NetParams,
    WidthVector,
    absorb_bias,
    forward,
    max_nondecreasing_component,
    normalize_activation,
)
from .norms import (
    Penalty,
    balance_relu,
    mixed_max_norm,
    pesv_matrixproduct_variant,
    pesv_norm,
    rescale_neuron,
    weight_decay_norm,
)
from .theory import (
    BoundConfig,
    BoundReport,
    double_descent_sweep,
    gen_bound_encompassing,
    gen_bound_over,
    gen_bound_under,
    h_of_m,
)
from .erm import (
    Dataset,
    LossSpec,
    OptimizerConfig,
    TeacherSpec,
    empirical_error,
    generalization_error_mc,
    init_params,
    objective,
    sample_dataset,
    train,
    train_many,
)

__version__ = "0.1.0"
