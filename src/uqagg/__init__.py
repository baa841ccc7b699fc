"""Scalar scoring of pixel-wise segmentation-uncertainty maps.

The package turns a 2-D per-pixel uncertainty map (values in [0, 1]) into a
single scalar usable for out-of-distribution detection or failure detection:

- intensity aggregators that pool the raw values (``avg``, ``plm``, ``ata``,
  ``aqa``, ``bca``, ``ica``, ``qfr``),
- spatial aggregators that weight each pixel by the local structure of the
  map before pooling (``mor``, ``eds``, ``ent``),
- a Gaussian-mixture meta-aggregator fitted on reference feature vectors
  whose negative log-likelihood scores how atypical a new map's features are,
- evaluation utilities (AUROC, risk--coverage, bootstrap, Wilcoxon, mean
  ranks) and synthetic benchmark generators for exercising all of the above.
"""

from types import ModuleType as _ModuleType

from .core import (
    ProbabilityStack,
    SegmentationMask,
    UncertaintyMap,
    as_mask,
    entropy_uncertainty,
    validate_map,
)
from .errors import (
    AllZeroDifferences,
    BadMagic,
    DuplicateColumn,
    DuplicateId,
    DuplicateStrategy,
    EmptyGrid,
    EmptyInput,
    FeatureMismatch,
    FortranOrderUnsupported,
    InvalidParam,
    InvalidSpec,
    InvalidStack,
    LengthMismatch,
    MaskRequired,
    MissingColumn,
    MissingFile,
    NoForeground,
    NonFinite,
    NonTwoDimensional,
    OutOfRange,
    ParseError,
    PatchTooLarge,
    ShapeMismatch,
    SingleClass,
    SingularCovariance,
    StrategySetMismatch,
    TooFewSamples,
    TruncatedPayload,
    UnknownStrategy,
    UnsupportedDtype,
    UqaggError,
)
from .evaluation import (
    RiskCoverageCurve,
    auroc,
    aurc,
    bootstrap_table,
    dice,
    eaurc,
    mean_rank,
    risk_coverage,
    significance_matrix,
    wilcoxon_one_sided,
)
from .intensity import (
    aqa,
    ata,
    avg,
    bca,
    ica,
    plm,
    qfr,
)
from .io import (
    Manifest,
    ManifestRow,
    read_manifest,
    read_npy,
    read_scores,
    write_manifest,
    write_npy,
    write_scores,
)
from .meta import (
    FeatureSetSpec,
    GmmModel,
    bic,
    em_fit,
    epsilon_rescale,
    fit_meta,
    load_model,
    meta_score_matrix,
    model_from_json,
    model_to_json,
    save_model,
    standardize_apply,
    standardize_fit,
)
from .rng import stream
from .spatial import (
    WeightMap,
    eds,
    ent,
    mor,
    smr,
    spatial_decompose,
    spatial_weight_map,
)
from .strategies import (
    FULL_SET,
    INTENSITY_SET,
    SPATIAL_SET,
    Strategy,
    compute_features,
    parse_strategy,
    parse_strategy_list,
)
from .synth import (
    Benchmark,
    BenchmarkSample,
    SynthSpec,
    expected_mean,
    gen_benchmark,
    generate,
    pattern_mask,
)

__version__ = "0.1.0"

# Public: every name the imports above bind, less the submodules they bind.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
