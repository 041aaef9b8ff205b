"""samlab: train small models with sharpness-aware optimizers and measure
how flat the minima they find really are."""

from .errors import (
    SamLabError, ShapeError, NumericError, LengthError,
    IdxFormatError, CheckpointError, LayoutError, ConfigError,
)
from .network import (
    MlpSpec, QuadraticSpec, LossGradient,
    forward, loss_and_grad, init_params, param_layout, param_count, accuracy,
    loss_and_accuracy,
)
from .optimizers import (
    OptimizerConfig, OptimizerState, Perturbation, StepReport,
    epsilon_first_order, epsilon_gradient_ascent, epsilon_random,
    step, init_state,
)
from .probes import (
    ProbeConfig, SharpnessReport,
    loss_ascent_direction, loss_average_direction, loss_worst_direction_estimate,
    generalization_gap, loss_plane_slice, build_report,
)
from .data import (
    Dataset, gen_two_moons, gen_gaussian_blobs, load_idx,
    inject_label_noise, split, minibatches,
)
from .params import LayoutEntry, ParameterVector, validate_layout
from .harness import (
    DatasetConfig, ModelConfig, ExperimentConfig, RunRecord,
    parse_config, load_config, build_dataset, Task, prepare_task,
    run_training, run_suite, compare_optimizers, probe_checkpoint, setup_process,
)
from .outputs import config_hash, emit_outputs
from . import checkpoint

__version__ = "0.1.0"
