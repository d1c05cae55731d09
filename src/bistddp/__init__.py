"""Missing POI check-in identification.

Given the check-ins a user made just before and after a target time, rank
all candidate POIs for the missing visit. Includes the data pipeline for
Foursquare/Gowalla dumps, the trainable model with ablation variants,
counting baselines, and ranking metrics.
"""

from .geodata import PoiTable, SpatialRowCache, haversine_km, spatial_vector
from .ingest import (
    Corpus,
    PreparedCorpus,
    SampleBatch,
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
    init_params,
    load_checkpoint,
    save_checkpoint,
    target_ranks,
)
from .evaluation import MetricsReport, report_from_ranks
from .train import (
    AdamState,
    Gradients,
    TrainConfig,
    adam_step,
    batch_gradients,
    finite_difference_check,
    fit,
)
from .baselines import fit_counts

__version__ = "0.1.0"
