"""Missing POI check-in identification.

Given the check-ins a user made just before and after a target time, rank
all candidate POIs for the missing visit. Includes the data pipeline for
Foursquare/Gowalla dumps, the trainable model with ablation variants,
counting baselines, and ranking metrics.
"""

from .geodata import GeoPoint, PoiTable, SpatialRowCache, haversine_km, spatial_vector
from .ingest import (
    Corpus,
    CorpusSplit,
    PreparedCorpus,
    Sample,
    SampleBatch,
    UserHistory,
    build_samples,
    chronological_split,
    encode_temporal_pattern,
    filter_min_activity,
    load_corpus,
    parse_foursquare,
    parse_gowalla,
    prepare,
    split_corpus,
    write_corpus,
)
from .model import (
    HyperParams,
    ModelParams,
    VARIANTS,
    VariantConfig,
    cross_entropy,
    forward,
    init_params,
    load_checkpoint,
    predict_topk,
    save_checkpoint,
    target_ranks,
)
from .evaluation import (
    MetricsReport,
    evaluate,
    f1_at_k,
    mean_average_precision,
    recall_at_k,
    report_from_ranks,
)
from .train import (
    AdamState,
    TrainConfig,
    adam_step,
    backward,
    batch_gradients,
    finite_difference_check,
    fit,
)
from .baselines import BaselineRankers, fit_counts, rank_backward, rank_forward, rank_top1, rank_top2

__version__ = "0.1.0"
