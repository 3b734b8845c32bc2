"""VLM substrate: simulated encoder/projector/LLM pipeline and the
calibrated twelve-model zoo replaying Table II."""

from repro.models import finetune
from repro.models.encoder import VisualEncoder, rate_scaling
from repro.models.irt import OutcomePlan, aptitude, plan_outcomes, quota
from repro.models.llm import LlmBackbone
from repro.models.projector import Projector
from repro.models.providers import (
    AsyncCallScheduler,
    HedgePolicy,
    LocalProvider,
    ModelProvider,
    ProviderRegistry,
    RemoteStubProvider,
    TokenBucket,
    as_provider,
    create_provider,
    default_registry,
    provider_names,
    register_provider,
)
from repro.models.vlm import (
    NO_CHOICE,
    WITH_CHOICE,
    CalibrationTable,
    ModelAnswer,
    SimulatedVLM,
)
from repro.models.zoo import (
    LLAVA_BACKBONE_STUDY,
    TABLE2_ROW_ORDER,
    build_model,
    build_vlm,
    build_zoo,
    model_names,
    paper_rates,
)

__all__ = [
    "VisualEncoder",
    "ModelProvider",
    "AsyncCallScheduler",
    "HedgePolicy",
    "TokenBucket",
    "LocalProvider",
    "RemoteStubProvider",
    "ProviderRegistry",
    "as_provider",
    "create_provider",
    "default_registry",
    "provider_names",
    "register_provider",
    "finetune",
    "Projector",
    "LlmBackbone",
    "SimulatedVLM",
    "CalibrationTable",
    "ModelAnswer",
    "OutcomePlan",
    "WITH_CHOICE",
    "NO_CHOICE",
    "aptitude",
    "plan_outcomes",
    "quota",
    "rate_scaling",
    "build_model",
    "build_vlm",
    "build_zoo",
    "model_names",
    "paper_rates",
    "TABLE2_ROW_ORDER",
    "LLAVA_BACKBONE_STUDY",
]
