"""Selective parameter displacement watermarking on a toy video generator.

The workflow surface is re-exported here; submodules stay importable for
the long tail (serialization helpers, individual attacks, loss pieces).
"""

from .channel_attacks import (
    ChannelSpec,
    TamperRecord,
    apply_attack,
    channel_extract,
)
from .keyspace import (
    BaseSecret,
    FrameMessage,
    KeyConfig,
    MessageSequence,
    SelectionMask,
    WatermarkKey,
    derive_frame_messages,
    key_to_mask,
    mask_to_key,
    parse_schedule_document,
    random_key,
    schedule_document,
)
from .objective import (
    LinearExtractor,
    LossWeights,
    bit_accuracy,
    fit_extractor,
    imperceptibility_loss,
    loss_gradients,
    loss_report,
    read_extractor,
    recovery_loss,
    write_extractor,
)
from .spd_core import (
    BasisDictionary,
    ToyDecoder,
    generate_video,
    init_dictionary,
    init_toy_decoder,
    random_condition,
    read_video,
    record_products,
    write_video,
)
from .verifier import (
    TamperDiagnosis,
    Verdict,
    diagnose_tampering,
    frame_threshold,
    hungarian_match,
    null_calibration,
    verify,
    video_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "BaseSecret",
    "BasisDictionary",
    "ChannelSpec",
    "FrameMessage",
    "KeyConfig",
    "LinearExtractor",
    "LossWeights",
    "MessageSequence",
    "SelectionMask",
    "TamperDiagnosis",
    "TamperRecord",
    "ToyDecoder",
    "Verdict",
    "WatermarkKey",
    "apply_attack",
    "bit_accuracy",
    "channel_extract",
    "derive_frame_messages",
    "diagnose_tampering",
    "fit_extractor",
    "frame_threshold",
    "generate_video",
    "hungarian_match",
    "imperceptibility_loss",
    "init_dictionary",
    "init_toy_decoder",
    "key_to_mask",
    "loss_gradients",
    "loss_report",
    "mask_to_key",
    "null_calibration",
    "parse_schedule_document",
    "random_condition",
    "random_key",
    "read_extractor",
    "read_video",
    "record_products",
    "recovery_loss",
    "schedule_document",
    "verify",
    "video_threshold",
    "write_extractor",
    "write_video",
]
