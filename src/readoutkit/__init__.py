"""Simulation and sequence-aware classification of superconducting qubit
readout traces.

The package covers the full loop: synthesize labeled qutrit readout shots,
process them through configurable trace pipelines, fit either an
integration-based Gaussian baseline or small sequence models trained from
scratch, and compare the classifiers shot by shot.
"""

from .dataio import canonical_json, config_hash, export_csv, load_dataset, save_dataset
from .dsp import bandpass, bin_average, demodulate, forward_fft, inverse_fft
from .errors import (
    ConfigurationError,
    DataError,
    FileFormatError,
    IncompatibilityError,
    NumericalError,
    ReadoutKitError,
)
from .evaluation import (
    DisagreementRecord,
    DisagreementReport,
    EvalReport,
    binomial_stderr,
    confusion_table,
    disagreements,
    evaluate,
    fidelity_table,
    report_from_predictions,
    scatter_svg,
    stratified_split,
)
from .gmm import GmmClassifier
from .nn import (
    Adam,
    DenseNetwork,
    LstmNetwork,
    TrainConfig,
    gradient_check,
    load_model,
    lr_at,
    lstm_param_count,
    save_model,
    train,
)
from .pathsig import (
    SignatureVector,
    batch_signature,
    path_transform,
    signature,
    signature_length,
    trajectory_signature,
)
from .pipeline import (
    TrainedPipeline,
    normalize_descriptor,
    preprocess_batch,
    standard_pipelines,
    train_pipeline,
)
from .sim import (
    Dataset,
    RawShot,
    SimConfig,
    StatePath,
    decay_statistics,
    easy_config,
    generate_dataset,
    regenerate_paths,
    sample_state_path,
    shot_rng,
    synthesize_shot,
)

__version__ = "0.1.0"
