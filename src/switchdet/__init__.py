"""Class-agnostic online detection of overlapping action intervals in streams."""

__version__ = "0.1.0"

from .exceptions import (
    CapacityError,
    DomainError,
    ProtocolError,
    SwitchDetError,
)
from .losses import (
    LossResult,
    sequence_loss_and_grad,
)
from .metrics import (
    APReport,
    MatchReport,
    PointAPReport,
    f1_at_tiou,
    hungarian_assign,
    interval_map,
    point_map,
)
from .scorer import (
    ScorerParams,
    backward_sequence,
    forward_sequence,
    forward_step,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .switchboard import (
    ActionInterval,
    EncodeReport,
    StreamDecoder,
    SwitchConfig,
    decode_sequence,
    decode_streaming,
    encode_instances,
)
from .synthgen import SynthConfig, generate_stream, write_features
from .trainer import (
    SweepRow,
    TrainConfig,
    infer_instances,
    sweep_alpha,
    train,
)

__all__ = [
    "ActionInterval",
    "APReport",
    "CapacityError",
    "DomainError",
    "EncodeReport",
    "LossResult",
    "MatchReport",
    "PointAPReport",
    "ProtocolError",
    "ScorerParams",
    "StreamDecoder",
    "SweepRow",
    "SwitchConfig",
    "SwitchDetError",
    "SynthConfig",
    "TrainConfig",
    "backward_sequence",
    "decode_sequence",
    "decode_streaming",
    "encode_instances",
    "f1_at_tiou",
    "forward_sequence",
    "forward_step",
    "generate_stream",
    "hungarian_assign",
    "infer_instances",
    "init_params",
    "interval_map",
    "load_checkpoint",
    "point_map",
    "save_checkpoint",
    "sequence_loss_and_grad",
    "sweep_alpha",
    "train",
    "write_features",
]
