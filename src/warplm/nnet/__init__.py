from .adam import AdamState, init_adam, step
from .checkpoint import (
    CHECKPOINT_MAGIC,
    load_checkpoint,
    load_encoder,
    save_checkpoint,
    save_encoder,
)
from .encoder import (
    encoder_backward,
    forward,
    lm_backward,
    lm_logits,
    lm_loss,
    lm_loss_and_grads,
    pad_rows,
    softmax,
)
from .model import EncoderModel, ModelConfig, init_model, param_count, param_shapes

__all__ = [
    "AdamState",
    "CHECKPOINT_MAGIC",
    "EncoderModel",
    "ModelConfig",
    "encoder_backward",
    "forward",
    "init_adam",
    "init_model",
    "lm_backward",
    "lm_logits",
    "lm_loss",
    "lm_loss_and_grads",
    "load_checkpoint",
    "load_encoder",
    "pad_rows",
    "param_count",
    "param_shapes",
    "save_checkpoint",
    "save_encoder",
    "softmax",
    "step",
]
