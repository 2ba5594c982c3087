"""Convex per-point losses for the federated simulator.

Each task is convex and L-Lipschitz in the l2 norm for features with
||x||_2 <= 1, so gradients land in the span of the clip ball without actual
clipping:

* ``logistic`` — loss ln(1 + exp(-y theta.x)), gradient -y sigma(-y theta.x) x,
  for labels y in {-1, +1}; L = 1.
* ``linear_abs`` — loss |theta.x - y|, subgradient sgn(theta.x - y) x; L = 1.
* ``zero`` — identically zero loss and gradient, for plumbing tests.

Each task has two forms over a (n, d) feature matrix and (n,) label vector:
``point_grads`` returns the (n, d) per-point gradients, one row per point,
and ``batch_loss`` the mean loss. A third form reads the labels alone:
``origin_loss(Y)`` is ``batch_loss`` at theta = 0, which ``train`` takes as
round 1's entry loss. It equals ``batch_loss(0, X, Y)`` bit for bit for
finite features and labels (a ``Population`` holds only those): every
margin x.0 is +-0, so each logistic point loss is ``logaddexp(0, +-0)``,
which is 0 + ln 2 (its x == y branch), each linear_abs point loss is
|+-0 - y| = |y|, and the mean runs over the same per-point array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ValidationError


def sigmoid(z):
    """1/(1 + e^{-z}), computed stably for large |z|."""
    return np.exp(-np.logaddexp(0.0, -z))


def logistic_point_grads(theta: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Per-point logistic gradients -y sigma(-y theta.x) x, labels in {-1, +1}."""
    return (-Y * sigmoid(-Y * (X @ theta)))[:, None] * X


def logistic_batch_loss(theta: np.ndarray, X: np.ndarray, Y: np.ndarray) -> float:
    return float(np.mean(np.logaddexp(0.0, -Y * (X @ theta))))


def logistic_origin_loss(Y: np.ndarray) -> float:
    return float(np.mean(np.full(np.shape(Y), np.logaddexp(0.0, 0.0))))


def linear_abs_point_grads(theta: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Per-point subgradients sgn(theta.x - y) x of |theta.x - y|."""
    return np.sign(X @ theta - Y)[:, None] * X


def linear_abs_batch_loss(theta: np.ndarray, X: np.ndarray, Y: np.ndarray) -> float:
    return float(np.mean(np.abs(X @ theta - Y)))


def linear_abs_origin_loss(Y: np.ndarray) -> float:
    return float(np.mean(np.abs(Y)))


def zero_point_grads(theta: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Zero gradients: the optimizer must leave theta unchanged."""
    return np.zeros((X.shape[0], theta.size))


def zero_batch_loss(theta: np.ndarray, X: np.ndarray, Y: np.ndarray) -> float:
    return 0.0


def zero_origin_loss(Y: np.ndarray) -> float:
    return 0.0


@dataclass(frozen=True)
class Task:
    """A convex per-point loss: its Lipschitz constant, per-point gradients,
    mean loss, and mean loss at theta = 0 from the labels alone."""

    name: str
    lipschitz: float
    point_grads: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    batch_loss: Callable[[np.ndarray, np.ndarray, np.ndarray], float]
    origin_loss: Callable[[np.ndarray], float]


TASKS: dict[str, Task] = {
    "logistic": Task(
        name="logistic",
        lipschitz=1.0,
        point_grads=logistic_point_grads,
        batch_loss=logistic_batch_loss,
        origin_loss=logistic_origin_loss,
    ),
    "linear_abs": Task(
        name="linear_abs",
        lipschitz=1.0,
        point_grads=linear_abs_point_grads,
        batch_loss=linear_abs_batch_loss,
        origin_loss=linear_abs_origin_loss,
    ),
    "zero": Task(
        name="zero",
        lipschitz=1.0,
        point_grads=zero_point_grads,
        batch_loss=zero_batch_loss,
        origin_loss=zero_origin_loss,
    ),
}


def get_task(tag: str) -> Task:
    """Look up a task by name; the error lists what exists."""
    try:
        return TASKS[tag]
    except (KeyError, TypeError):  # TypeError: an unhashable tag
        raise ValidationError(
            f"unknown task {tag!r}; available: {', '.join(sorted(TASKS))}"
        ) from None
