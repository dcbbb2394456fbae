"""foleygen: learned stereo audio generation for silent video.

A desk-scale numpy framework: a reverse-mode autodiff engine, an
audio/video alignment pipeline, three generator architectures (deep fusion,
dilated causal wavenet, causal transformer), a training harness, and an
autoregressive generation loop with frozen per-frame video context.
"""

from .avio import (
    AlignedAV,
    AudioBuffer,
    ContextWindow,
    Dataset,
    VideoClip,
    align,
    downsample_audio,
    ingest,
    load_clip,
    load_dataset,
    load_wav,
    resize_frames,
    sample_window,
    save_dataset,
)
from .engine import Tensor, backward, grad_check
from .generation import frame_boundary_discontinuity, generate, write_wav
from .models import (
    ModelConfig,
    build_model,
    dequantize,
    load_checkpoint,
    quantize,
    save_checkpoint,
)
from .training import TrainConfig, evaluate, loss, train

__version__ = "0.1.0"

__all__ = [
    "AlignedAV", "AudioBuffer", "ContextWindow", "Dataset", "VideoClip",
    "align", "downsample_audio", "ingest", "load_clip", "load_dataset",
    "load_wav", "resize_frames", "sample_window", "save_dataset",
    "Tensor", "backward", "grad_check",
    "frame_boundary_discontinuity", "generate", "write_wav",
    "ModelConfig", "build_model", "dequantize", "load_checkpoint",
    "quantize", "save_checkpoint",
    "TrainConfig", "evaluate", "loss", "train",
    "__version__",
]
