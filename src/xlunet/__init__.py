"""xlunet: a from-scratch segmentation stack — dense tensors with
reverse-mode autodiff, matrix-memory sequence blocks inside a U-Net, and
the training/evaluation tooling around them.  numpy + scipy only, and
scipy only for the evaluation metrics, which import it on first use."""

from .data import (
    DatasetInfo,
    XtenBadDtype,
    XtenBadMagic,
    XtenBadVersion,
    XtenError,
    XtenTruncated,
    generate_dataset,
    load_case,
    load_dataset,
    read_xten,
    sample_patch,
    write_xten,
)
from .gradcheck import CheckResult, corrupted_backward, finite_diff_check, run_checks
from .losses import LossConfig, dice_ce_loss
from .metrics import (
    METRIC_NAMES,
    aggregate_metrics,
    boundary_mask,
    dice_coefficient,
    evaluate_case,
    hausdorff95,
    instance_f1,
    surface_dice,
)
from .network import Network, NetworkConfig, build_network, count_parameters
from .optim import AdamWConfig, AdamWState, adamw_step, init_adamw, lr_schedule
from .tensor import (
    ContractError,
    Graph,
    GraphError,
    NumericsError,
    Tensor,
)
from .train import (
    RunConfig,
    TrainResult,
    load_checkpoint,
    load_run_config,
    predict_volume,
    restore_network,
    run_eval,
    run_training,
    save_checkpoint,
)
from .vil import (
    MlstmParams,
    VilBlockParams,
    XlstmBlockParams,
    init_mlstm_params,
    init_vil_params,
    init_xlstm_params,
    mlstm_sequence,
    vil_block,
    volume_to_sequence,
    sequence_to_volume,
    xlstm_block,
)

__version__ = "0.1.0"
