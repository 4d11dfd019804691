"""Tri-modal contrastive pretraining of a satellite-tile encoder.

Aligns tile embeddings with species-observation locations, environmental
covariates, and text embeddings, then evaluates the frozen encoder with
linear probes, cosine retrieval, and zero-shot classification.
"""

from .contrastive import LossConfig, info_nce, pairwise_loss, trimodal_loss
from .dataio import GeoDataset, ingest_dataset, save_dataset
from .encoders import (ImageEncoderConfig, LocationEncoderConfig, Model, ModelConfig,
                       location_input_features, trainable_mask)
from .evaluate import (ProbeConfig, ProbeHead, RetrievalIndex, accuracy, build_index,
                       confusion_matrix, fit_linear_probe, mean_iou, micro_f1,
                       query_index, top_k_accuracy, zero_shot_classify)
from .geodata import (CovariateRaster, Observations, PairedSamples, TextSections, TileRecord,
                      bilinear_sample, pair_samples)
from .gradcheck import finite_diff_check
from .optim import AdamState, ParameterStore, adam_step
from .synthworld import SyntheticWorldConfig, generate_synthetic_world
from .tape import Tape, backward, l2_normalize_rows
from .training import (Checkpoint, TrainConfig, initial_model, load_checkpoint,
                       model_from_checkpoint, save_checkpoint, train)

__all__ = [
    "AdamState", "Checkpoint", "CovariateRaster", "GeoDataset", "ImageEncoderConfig",
    "LocationEncoderConfig", "LossConfig", "Model", "ModelConfig", "Observations",
    "PairedSamples", "ParameterStore", "ProbeConfig", "ProbeHead", "RetrievalIndex",
    "SyntheticWorldConfig", "Tape", "TextSections", "TileRecord", "TrainConfig", "accuracy",
    "adam_step", "backward", "bilinear_sample", "build_index", "confusion_matrix",
    "finite_diff_check", "fit_linear_probe",
    "generate_synthetic_world", "info_nce", "ingest_dataset", "initial_model",
    "l2_normalize_rows", "load_checkpoint", "location_input_features", "mean_iou",
    "micro_f1", "model_from_checkpoint", "pair_samples", "pairwise_loss",
    "query_index", "save_checkpoint", "save_dataset", "top_k_accuracy", "train",
    "trainable_mask", "trimodal_loss", "zero_shot_classify",
]
