"""Federated training simulator: datasets, convex tasks, and the SGD loop."""

from .data import (
    ClientDataset,
    load_dataset_binary,
    load_dataset_csv,
    save_dataset_binary,
    save_dataset_csv,
    stack_points,
    synthetic_logistic_data,
    validate_clients,
)
from .tasks import TASKS, Task, get_task
from .training import (
    RoundTrace,
    TrainConfig,
    TrainResult,
    sample_clients,
    sample_data,
    train,
)

__all__ = [
    "ClientDataset",
    "load_dataset_binary",
    "load_dataset_csv",
    "save_dataset_binary",
    "save_dataset_csv",
    "stack_points",
    "synthetic_logistic_data",
    "validate_clients",
    "TASKS",
    "Task",
    "get_task",
    "RoundTrace",
    "TrainConfig",
    "TrainResult",
    "sample_clients",
    "sample_data",
    "train",
]
