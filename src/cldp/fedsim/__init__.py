"""Federated training simulator: datasets, convex tasks, and the SGD loop."""

from .data import (
    ClientDataset,
    Population,
    load_dataset_binary,
    load_dataset_csv,
    save_dataset_binary,
    save_dataset_csv,
    synthetic_logistic_data,
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
