"""Data substrate: synthetic interest world, time spans, sampling, stats."""

from .schema import (
    Interaction,
    SpanDataset,
    TemporalSplit,
    UserSpanData,
    interactions_by_user,
)
from .synthetic import InterestWorld, WorldConfig, generate_world
from .timespans import split_time_spans
from .sampler import NegativeSampler
from .datasets import ALPHA, DATASET_NAMES, T_SPANS, dataset_config, load_custom, load_dataset
from .stats import DatasetStats, compute_stats, interest_reappearance_rate
from .loaders import LoadedDataset, load_amazon_ratings, load_taobao_userbehavior

__all__ = [
    "Interaction",
    "SpanDataset",
    "TemporalSplit",
    "UserSpanData",
    "interactions_by_user",
    "InterestWorld",
    "WorldConfig",
    "generate_world",
    "split_time_spans",
    "NegativeSampler",
    "ALPHA",
    "DATASET_NAMES",
    "T_SPANS",
    "dataset_config",
    "load_custom",
    "load_dataset",
    "DatasetStats",
    "compute_stats",
    "interest_reappearance_rate",
    "LoadedDataset",
    "load_amazon_ratings",
    "load_taobao_userbehavior",
]
