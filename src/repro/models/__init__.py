"""The simulated LLM model zoo.

Ten models from the paper's Table 1 (Falcon, Llama2, Qwen1.5, Yi families)
with the paper's parameter sizes and *exact* total CUDA-graph node counts,
plus tiny test configurations.  A model is a real layer-structured program
over the simulated CUDA substrate: structure initialization allocates weight
buffers in deterministic order, forwarding launches named kernels (visible
torch-style ones and hidden cuBLAS-style GEMMs), and layers are structurally
identical — the property Medusa's first-layer triggering relies on (§5.2).
"""

from repro.models.config import KernelTemplate, ModelConfig
from repro.models.model import Model
from repro.models.zoo import (
    PAPER_MODELS,
    TINY_MODELS,
    get_model_config,
    paper_model_names,
)

__all__ = [
    "KernelTemplate",
    "Model",
    "ModelConfig",
    "PAPER_MODELS",
    "TINY_MODELS",
    "get_model_config",
    "paper_model_names",
]
