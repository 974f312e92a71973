"""Privacy-aware partitioning of CNN inference between a trusted enclave
and an untrusted accelerator.

The package models a network as a linear chain of layers with a fixed set
of candidate cut points. For each cut it can predict end-to-end runtime
from a calibrated cost profile, measure how well the exposed feature map
can be inverted back to the input, and pick the shallowest cut whose
reconstructions stay dissimilar enough from the input. A simulator runs
the resulting split model and keeps a ledger proving that raw inputs and
critical weights never leave the trusted side.
"""

from .graph import (ELEMENT_SIZE, ADD, AVGPOOL, BNORM, CMUL, CONV, DWCONV,
                    FC, FLATTEN, GAP, MAXPOOL, RELU, SIGMOID, SWISH,
                    GraphError, LayerSpec, ModelGraph, PartitionAssignment,
                    Unit, enumerate_partitions, format_counts, load_model,
                    make_graph, mix_seed, model_from_json, model_to_json,
                    save_model, split)
from .architectures import (build_architecture, build_efficientnetb0,
                            build_resnet50, build_toy_cnn, build_vgg16,
                            resolve_model)
from .tensors import (TeesplitError, TensorError, load_image, load_tensor,
                      require_tensor, save_tensor, tensor_from_bytes,
                      tensor_to_bytes)
from .engine import (EngineError, clear_weight_cache, forward, forward_until,
                     input_gradient, layer_weights, model_param_bytes,
                     param_count)
from .costs import (CalibrationError, CostProfile, PointCost,
                    RuntimeBreakdown, TransferModel, builtin_profile,
                    calibrate, fit_transfer, full_enclave_breakdown,
                    load_profile, mac_count, predict, profile_from_json,
                    profile_to_json, save_profile, validate_profile)
from .privacy import (DEFAULT_SLACK, DEFAULT_THRESHOLD, AttackConfig,
                      InversionDivergenceError, PrivacyError, PrivacyReport,
                      SsimParams, evaluate_privacy, gaussian_window,
                      invert_feature_map, report_to_csv, scores_from_csv,
                      select_optimal_partition, ssim)
from .planner import (Alternative, PartitionPlan, PlanError, PlanRequest,
                      brute_force_plan, plan, plan_table_csv)
from .pipeline import (LedgerEvent, LedgerViolationError, PipelineResult,
                       TrustLedger, simulate_pipeline)
from .charts import sweep_chart_svg
from .cli import main

__version__ = "0.1.0"

__all__ = [
    "ELEMENT_SIZE", "ADD", "AVGPOOL", "BNORM", "CMUL", "CONV", "DWCONV",
    "FC", "FLATTEN", "GAP", "MAXPOOL", "RELU", "SIGMOID", "SWISH",
    "GraphError", "LayerSpec", "ModelGraph", "PartitionAssignment", "Unit",
    "enumerate_partitions", "format_counts", "load_model", "make_graph",
    "mix_seed", "model_from_json", "model_to_json", "save_model", "split",
    "build_architecture", "build_efficientnetb0", "build_resnet50",
    "build_toy_cnn", "build_vgg16", "resolve_model",
    "TeesplitError", "TensorError", "load_image", "load_tensor",
    "require_tensor", "save_tensor", "tensor_from_bytes", "tensor_to_bytes",
    "EngineError", "clear_weight_cache", "forward", "forward_until",
    "input_gradient", "layer_weights", "model_param_bytes", "param_count",
    "CalibrationError", "CostProfile", "PointCost", "RuntimeBreakdown",
    "TransferModel", "builtin_profile", "calibrate", "fit_transfer",
    "full_enclave_breakdown", "load_profile", "mac_count", "predict",
    "profile_from_json", "profile_to_json", "save_profile",
    "validate_profile",
    "DEFAULT_SLACK", "DEFAULT_THRESHOLD", "AttackConfig",
    "InversionDivergenceError", "PrivacyError", "PrivacyReport",
    "SsimParams", "evaluate_privacy", "gaussian_window",
    "invert_feature_map", "report_to_csv", "scores_from_csv",
    "select_optimal_partition", "ssim",
    "Alternative", "PartitionPlan", "PlanError", "PlanRequest",
    "brute_force_plan", "plan", "plan_table_csv",
    "LedgerEvent", "LedgerViolationError", "PipelineResult", "TrustLedger",
    "simulate_pipeline",
    "sweep_chart_svg", "main",
]
