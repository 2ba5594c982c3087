"""Client datasets for the federated simulator: synthesis, save, load.

The balanced setting is assumed throughout: every one of the m clients holds
exactly r (feature, label) points of dimension d.

File formats
------------
Binary (extension-agnostic, magic ``CLDPDS01``), all fields big-endian:

    8 bytes   magic b"CLDPDS01"
    3 x u32   m, r, d
    m*r records, client i owning records [i*r, (i+1)*r), each record
    (d + 1) float64 values: the d features followed by the label.

Client ids are positional (0..m-1). The CSV alternative has a header row
``client_id,x0,...,x{d-1},label`` and one record per row; rows of one client
must be contiguous and every client must contribute the same number of rows.

The synthetic generator draws features uniformly from the unit l2 sphere and
labels in {-1, +1} from a planted parameter vector through the logistic model
P(y = +1 | x) = 1/(1 + exp(-theta_star . x)), so convergence tests know the
ground truth.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import struct
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError, require_int, require_real

_MAGIC = b"CLDPDS01"
_HEADER = struct.Struct(">III")

DATA_SALT = 0x44415441  # distinguishes the data-synthesis RNG stream


@dataclass(frozen=True)
class ClientDataset:
    """One client's local data: features (r, d) and labels (r,)."""

    client_id: int
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "client_id", require_int(self.client_id, "client_id"))
        try:
            feats = np.asarray(self.features, dtype=np.float64)
            labs = np.asarray(self.labels, dtype=np.float64)
        except (TypeError, ValueError):
            raise ValidationError(f"client {self.client_id}: data must be real numbers") from None
        if feats.ndim != 2 or labs.ndim != 1 or feats.shape[0] != labs.shape[0]:
            raise ValidationError(
                f"client {self.client_id}: features must be (r, d) and labels (r,), "
                f"got {feats.shape} and {labs.shape}"
            )
        if feats.shape[0] < 1:
            raise ValidationError(f"client {self.client_id} holds no points")
        if not (np.all(np.isfinite(feats)) and np.all(np.isfinite(labs))):
            raise ValidationError(f"client {self.client_id}: non-finite data")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def r(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def validate_clients(clients, m: int, r: int, d: int) -> None:
    """Check the balanced-setting shape contract against expected (m, r, d)."""
    if len(clients) != m:
        raise ValidationError(f"expected {m} clients, got {len(clients)}")
    want = (r, d)
    for c in clients:
        shape = c.features.shape  # (r, d): a client's features are 2-D
        if shape != want:
            raise ValidationError(
                f"client {c.client_id} holds ({shape[0]}, {shape[1]}) data, expected ({r}, {d})"
            )


def stack_points(clients) -> tuple[np.ndarray, np.ndarray]:
    """All points of all clients as one (m*r, d) matrix and (m*r,) labels."""
    X = np.concatenate([c.features for c in clients], axis=0)
    Y = np.concatenate([c.labels for c in clients], axis=0)
    return X, Y


def synthetic_logistic_data(
    m: int, r: int, d: int, seed: int, theta_norm: float = 1.5
) -> tuple[list[ClientDataset], np.ndarray]:
    """m balanced clients of r points each, plus the planted parameter vector.

    Features are uniform on the unit l2 sphere; labels are -1/+1 drawn from
    the logistic model at the planted vector (a uniformly random direction
    scaled to theta_norm).
    """
    if require_int(m, "m") < 1 or require_int(r, "r") < 1 or require_int(d, "d") < 1:
        raise ValidationError(f"need m, r, d >= 1, got ({m}, {r}, {d})")
    if require_int(seed, "seed") < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    if not require_real(theta_norm, "theta_norm") >= 0.0:
        raise ValidationError(f"theta_norm must be >= 0, got {theta_norm!r}")
    gen = np.random.default_rng(np.random.SeedSequence((seed, DATA_SALT)))
    direction = gen.standard_normal(d)
    direction /= np.linalg.norm(direction)
    theta_star = theta_norm * direction
    feats = gen.standard_normal((m * r, d))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    p_plus = 1.0 / (1.0 + np.exp(-feats @ theta_star))
    labels = np.where(gen.random(m * r) < p_plus, 1.0, -1.0)
    clients = [
        ClientDataset(
            client_id=i,
            features=feats[i * r : (i + 1) * r],
            labels=labels[i * r : (i + 1) * r],
        )
        for i in range(m)
    ]
    return clients, theta_star


def _unwritable(path, exc: OSError) -> ValidationError:
    return ValidationError(f"{path}: cannot write output ({exc.strerror or exc})")


@contextlib.contextmanager
def open_output(path, binary: bool = False):
    """An output file to write in a with block, text (newline="") or binary;
    ValidationError if it cannot be written.

    A regular file, or a symlink to one, is written under a temporary name
    beside it (so its directory must be writable) and renamed into place when
    the block succeeds, or removed when it fails, so a failed write leaves no
    file; the renamed file is a new one, with the default mode. Any other
    existing path, such as /dev/stdout, is written in place.
    """
    target = os.path.realpath(path)
    atomic = os.path.isfile(target) or not os.path.exists(target)
    tmp = f"{target}.{os.getpid()}.tmp" if atomic else path
    try:
        fh = open(tmp, "wb") if binary else open(tmp, "w", newline="")
    except OSError as exc:
        raise _unwritable(path, exc) from None
    try:
        with fh:
            yield fh
        if atomic:
            try:
                os.replace(tmp, target)
            except OSError as exc:
                raise _unwritable(path, exc) from None
    except BaseException:
        if atomic:
            os.remove(tmp)
        raise


def save_dataset_binary(path, clients) -> None:
    """Write the documented binary layout; client ids become positional."""
    if not clients:
        raise ValidationError("cannot save an empty dataset")
    r, d = clients[0].r, clients[0].d
    validate_clients(clients, len(clients), r, d)
    X, Y = stack_points(clients)
    records = np.concatenate([X, Y[:, None]], axis=1).astype(">f8")
    with open_output(path, binary=True) as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(len(clients), r, d))
        fh.write(records.tobytes(order="C"))


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read dataset ({exc.strerror or exc})") from exc


def load_dataset_binary(path) -> list[ClientDataset]:
    """Read the documented binary layout back into ClientDatasets."""
    blob = _read_bytes(path)
    if blob[: len(_MAGIC)] != _MAGIC:
        raise ValidationError(f"{path}: not a dataset file (bad magic)")
    if len(blob) < len(_MAGIC) + _HEADER.size:
        raise ValidationError(f"{path}: truncated header")
    m, r, d = _HEADER.unpack_from(blob, len(_MAGIC))
    if m < 1 or r < 1 or d < 1:
        raise ValidationError(f"{path}: invalid header ({m}, {r}, {d})")
    body = blob[len(_MAGIC) + _HEADER.size :]
    expected = m * r * (d + 1) * 8
    if len(body) != expected:
        raise ValidationError(f"{path}: expected {expected} data bytes, found {len(body)}")
    records = np.frombuffer(body, dtype=">f8").reshape(m * r, d + 1).astype(np.float64)
    return [
        ClientDataset(
            client_id=i,
            features=records[i * r : (i + 1) * r, :d],
            labels=records[i * r : (i + 1) * r, d],
        )
        for i in range(m)
    ]


def save_dataset_csv(path, clients) -> None:
    """CSV alternative: header client_id,x0,...,x{d-1},label then one row per point."""
    if not clients:
        raise ValidationError("cannot save an empty dataset")
    d = clients[0].d
    validate_clients(clients, len(clients), clients[0].r, d)
    with open_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["client_id"] + [f"x{j}" for j in range(d)] + ["label"])
        for c in clients:
            for x, y in zip(c.features, c.labels):
                writer.writerow([c.client_id] + [repr(float(v)) for v in x] + [repr(float(y))])


def load_dataset_csv(path) -> list[ClientDataset]:
    """Read the CSV alternative (UTF-8); every client must hold equally many rows."""
    rows_by_client: dict[int, list[list[float]]] = {}
    order: list[int] = []
    try:
        reader = csv.reader(io.StringIO(_read_bytes(path).decode(), newline=""))
        header = next(reader, [])
        if len(header) < 3 or header[0] != "client_id" or header[-1] != "label":
            raise ValidationError(f"{path}: unexpected CSV header {header!r}")
        d = len(header) - 2
        for row in reader:
            if len(row) != d + 2:
                raise ValidationError(f"{path}: row of width {len(row)}, expected {d + 2}")
            cid, values = int(row[0]), [float(v) for v in row[1:]]
            if cid not in rows_by_client:
                rows_by_client[cid] = []
                order.append(cid)
            rows_by_client[cid].append(values)
    except ValidationError:
        raise
    except (ValueError, csv.Error) as exc:  # non-UTF-8 bytes, a non-numeric field
        raise ValidationError(f"{path}: malformed CSV dataset ({exc})") from None
    if not order:
        raise ValidationError(f"{path}: no data rows")
    counts = {len(v) for v in rows_by_client.values()}
    if len(counts) != 1:
        raise ValidationError(f"{path}: clients hold unequal point counts {sorted(counts)}")
    clients = []
    for cid in order:
        arr = np.asarray(rows_by_client[cid], dtype=np.float64)
        clients.append(ClientDataset(client_id=cid, features=arr[:, :d], labels=arr[:, d]))
    return clients
