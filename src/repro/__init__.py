"""repro — Incremental inference for probabilistic programs.

A reproduction of *Incremental Inference for Probabilistic Programs*
(Cusumano-Towner, Bichsel, Gehr, Vechev, Mansinghka — PLDI 2018).

The package provides two complete probabilistic-programming runtimes and
the paper's trace-translation framework on top of them:

* :mod:`repro.core` — a lightweight embedded PPL (traced Python
  functions with addressed random choices) with correspondence-based
  trace translation, SMC (Algorithm 2), MCMC kernels, and exact
  enumeration;
* :mod:`repro.lang` — the paper's structured probabilistic language
  (Section 3) with a parser, small-step interpreter, and exact
  enumeration;
* :mod:`repro.graph` — the dependency-tracking runtime of Section 6:
  traces as dependency graphs, program edits, syntactic correspondence,
  and asymptotically efficient incremental trace translation;
* :mod:`repro.hmm`, :mod:`repro.regression`, :mod:`repro.gmm` — the
  substrates of the paper's evaluation (Sections 7.2-7.4);
* :mod:`repro.experiments` — runnable reproductions of Figures 1 and
  8-10.

Quickstart::

    import numpy as np
    from repro import Model, Correspondence, CorrespondenceTranslator
    from repro import WeightedCollection, infer
    from repro.distributions import Flip

    def original(t):
        burglary = t.sample(Flip(0.02), "burglary")
        alarm = t.sample(Flip(0.9 if burglary else 0.01), "alarm")
        t.observe(Flip(0.8 if alarm else 0.05), 1, "mary_wakes")
        return burglary

    def refined(t):
        burglary = t.sample(Flip(0.02), "burglary")
        earthquake = t.sample(Flip(0.005), "earthquake")
        p_alarm = 0.95 if earthquake else (0.9 if burglary else 0.01)
        alarm = t.sample(Flip(p_alarm), "alarm")
        p_wakes = (0.9 if earthquake else 0.8) if alarm else 0.05
        t.observe(Flip(p_wakes), 1, "mary_wakes")
        return burglary

    p, q = Model(original), Model(refined)
    translator = CorrespondenceTranslator(
        p, q, Correspondence.identity(["burglary", "alarm"]))
    rng = np.random.default_rng(0)
    traces = WeightedCollection.uniform([p.simulate(rng) for _ in range(100)])
    step = infer(translator, traces, rng)
    print(step.collection.estimate_probability(lambda u: u["burglary"] == 1))
"""

from .core import (
    RECOVERABLE_ERRORS,
    Address,
    ChoiceMap,
    Correspondence,
    CorrespondenceTranslator,
    DegeneracyError,
    FaultPolicy,
    ImpossibleConstraintError,
    InferenceConfig,
    Kernel,
    MissingChoiceError,
    Model,
    ModelExecutionError,
    NumericalError,
    ReproError,
    SMCStats,
    SMCStep,
    SupportError,
    TranslationError,
    Trace,
    TraceTranslator,
    TranslationResult,
    WeightedCollection,
    addr,
    effective_sample_size,
    enumerate_traces,
    exact_choice_marginal,
    exact_expectation,
    exact_posterior_sampler,
    exact_return_distribution,
    infer,
    infer_sequence,
    log_normalizer,
    probabilistic,
)

__version__ = "0.1.0"

__all__ = [
    "RECOVERABLE_ERRORS",
    "Address",
    "ChoiceMap",
    "Correspondence",
    "CorrespondenceTranslator",
    "DegeneracyError",
    "FaultPolicy",
    "ImpossibleConstraintError",
    "InferenceConfig",
    "Kernel",
    "MissingChoiceError",
    "Model",
    "ModelExecutionError",
    "NumericalError",
    "ReproError",
    "SMCStats",
    "SMCStep",
    "SupportError",
    "TranslationError",
    "Trace",
    "TraceTranslator",
    "TranslationResult",
    "WeightedCollection",
    "addr",
    "effective_sample_size",
    "enumerate_traces",
    "exact_choice_marginal",
    "exact_expectation",
    "exact_posterior_sampler",
    "exact_return_distribution",
    "infer",
    "infer_sequence",
    "log_normalizer",
    "probabilistic",
    "__version__",
]
