"""Core embedded PPL and the trace-translation framework.

This package implements the paper's primary contribution for the
lightweight embedded language:

* :mod:`repro.core.model` — probabilistic programs as traced Python
  functions (the design of Wingate et al. [44] used by the paper's Julia
  implementation);
* :mod:`repro.core.translator` / :mod:`repro.core.corr_translator` —
  trace translators (Sections 4-5);
* :mod:`repro.core.smc` — Algorithm 2 and multi-step SMC;
* :mod:`repro.core.mcmc` — rejuvenation and baseline kernels;
* :mod:`repro.core.enumerate` — exact inference for finite discrete
  models (ground truth in tests and the overview experiment).
"""

from ..errors import (
    RECOVERABLE_ERRORS,
    DegeneracyError,
    ModelExecutionError,
    NumericalError,
    ReproError,
    SupportError,
    TranslationError,
)
from .address import Address, addr
from .columnar import ColumnarCollection, ColumnarSpill
from .config import InferenceConfig, RegenerateFn
from .annealing import (
    annealed_importance_sampling,
    full_identity_correspondence,
    interpolated_schedule,
    observation_schedule,
    sequential_observations,
)
from .correspondence import Correspondence
from .corr_translator import CorrespondenceTranslator, ProposalFn, ProposalMap
from .enumerate import (
    enumerate_traces,
    exact_choice_marginal,
    exact_expectation,
    exact_posterior_sampler,
    exact_return_distribution,
    log_normalizer,
)
from .importance import (
    importance_sampling,
    log_marginal_likelihood,
    rejection_sampling,
    sampling_importance_resampling,
)
from .handlers import (
    GenerateHandler,
    ImpossibleConstraintError,
    MissingChoiceError,
    ScoreHandler,
    SimulateHandler,
    TraceHandler,
    log_sum_exp,
)
from .mcmc import (
    Kernel,
    chain,
    custom_mh_site,
    cycle,
    gibbs_site,
    gibbs_sweep,
    independent_mh_site,
    regenerate,
    repeat,
    single_site_mh,
)
from .model import Model, probabilistic
from .smc import FaultPolicy, SMCStats, SMCStep, infer, infer_sequence, translate_particle
from .trace import ChoiceMap, ChoiceRecord, ObservationRecord, Trace
from .translator import TraceTranslator, TranslationResult, validate_result
from .weighted import (
    RESAMPLING_SCHEMES,
    WeightedCollection,
    effective_sample_size,
    log_sum_exp_array,
)

__all__ = [
    "RECOVERABLE_ERRORS",
    "DegeneracyError",
    "ModelExecutionError",
    "NumericalError",
    "ReproError",
    "SupportError",
    "TranslationError",
    "Address",
    "addr",
    "ColumnarCollection",
    "ColumnarSpill",
    "InferenceConfig",
    "RegenerateFn",
    "annealed_importance_sampling",
    "full_identity_correspondence",
    "interpolated_schedule",
    "observation_schedule",
    "sequential_observations",
    "Correspondence",
    "CorrespondenceTranslator",
    "ProposalFn",
    "ProposalMap",
    "enumerate_traces",
    "exact_choice_marginal",
    "exact_expectation",
    "exact_posterior_sampler",
    "exact_return_distribution",
    "log_normalizer",
    "importance_sampling",
    "log_marginal_likelihood",
    "rejection_sampling",
    "sampling_importance_resampling",
    "GenerateHandler",
    "ImpossibleConstraintError",
    "MissingChoiceError",
    "ScoreHandler",
    "SimulateHandler",
    "TraceHandler",
    "log_sum_exp",
    "Kernel",
    "chain",
    "custom_mh_site",
    "cycle",
    "gibbs_site",
    "gibbs_sweep",
    "independent_mh_site",
    "regenerate",
    "repeat",
    "single_site_mh",
    "Model",
    "probabilistic",
    "FaultPolicy",
    "SMCStats",
    "SMCStep",
    "infer",
    "translate_particle",
    "infer_sequence",
    "ChoiceMap",
    "ChoiceRecord",
    "ObservationRecord",
    "Trace",
    "TraceTranslator",
    "TranslationResult",
    "validate_result",
    "RESAMPLING_SCHEMES",
    "WeightedCollection",
    "effective_sample_size",
    "log_sum_exp_array",
]
