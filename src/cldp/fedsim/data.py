"""Client datasets for the federated simulator: synthesis, save, load.

The balanced setting is assumed throughout: every one of the m clients holds
exactly r (feature, label) points of dimension d. A ``Population`` holds all
of them as one read-only (m*r, d) feature matrix, (m*r,) labels and (m,)
client ids, client i owning rows [i*r, (i+1)*r). It is checked once, when it
is built, and its clients are ``ClientDataset`` views into those arrays. The
synthesizer and both loaders return one, ``fedsim.train`` reads its arrays
directly, and the savers write from them. ``Population.of`` turns a list of
``ClientDataset``s into one, stacking its points once, and checks the list
against an expected (m, r, d).

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
from collections.abc import Sequence
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
        cid = require_int(self.client_id, "client_id")
        alone = Population(self.features, self.labels, np.array([cid]))  # the one data check
        object.__setattr__(self, "client_id", cid)
        object.__setattr__(self, "features", alone.features)
        object.__setattr__(self, "labels", alone.labels)

    @property
    def r(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @classmethod
    def _of_rows(cls, client_id: int, features: np.ndarray, labels: np.ndarray) -> ClientDataset:
        """A client over a population's checked read-only rows, every field
        set here: the constructor's check would only repeat the population's."""
        client = object.__new__(cls)
        object.__setattr__(client, "client_id", client_id)
        object.__setattr__(client, "features", features)
        object.__setattr__(client, "labels", labels)
        return client


@dataclass(frozen=True, eq=False)
class Population(Sequence):
    """m balanced clients as features (m*r, d), labels (m*r,) and client ids (m,).

    Client i owns rows [i*r, (i+1)*r). The arrays are C-contiguous and
    read-only, the data float64 and the ids 64-bit integers; they are checked
    here, once. Indexing gives a client as a ``ClientDataset`` view into them.
    """

    features: np.ndarray
    labels: np.ndarray
    client_ids: np.ndarray

    def __post_init__(self) -> None:
        try:
            feats = np.ascontiguousarray(self.features, dtype=np.float64)
            labs = np.ascontiguousarray(self.labels, dtype=np.float64)
        except (TypeError, ValueError):
            raise ValidationError("client data must be real numbers") from None
        ids = np.ascontiguousarray(self.client_ids)
        if ids.ndim != 1 or ids.size < 1 or ids.dtype.kind not in "iu":
            raise ValidationError(
                f"client ids must be one or more 64-bit integers, got {self.client_ids!r:.200}"
            )
        m, n = ids.size, feats.shape[0]
        if feats.ndim != 2 or labs.shape != (n,) or n % m or n < m:
            raise ValidationError(
                f"{m} client(s) need (m*r, d) features and (m*r,) labels, r >= 1, "
                f"got {feats.shape} and {labs.shape}"
            )
        bad = ~(np.isfinite(feats).all(axis=1) & np.isfinite(labs))
        if bad.any():
            raise ValidationError(f"client {ids[bad.argmax() // (n // m)]}: non-finite data")
        for name, arr in (("features", feats), ("labels", labs), ("client_ids", ids)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def of(cls, data, shape: tuple[int, int, int] | None = None) -> Population:
        """``data`` as a population: a Population as it is, or a sequence of
        ClientDatasets with its points stacked once. ``shape`` is the (m, r, d)
        to check it against; by default its own client count and first shape."""
        if isinstance(data, Population):
            clients, count = [data[0]], len(data)  # every client holds (r, d) data
        else:
            try:
                clients = list(data)
            except TypeError:
                clients = None
            if clients is None or not all(isinstance(c, ClientDataset) for c in clients):
                raise ValidationError(
                    f"data must be a sequence of ClientDatasets, got {data!r:.200}"
                )
            count = len(clients)
        if shape is None:
            if not clients:
                raise ValidationError("a dataset needs at least one client")
            shape = (count, clients[0].r, clients[0].d)
        m, r, d = shape
        if count != m:
            raise ValidationError(f"expected {m} clients, got {count}")
        for c in clients:
            if c.features.shape != (r, d):  # (r, d): a client's features are 2-D
                raise ValidationError(
                    f"client {c.client_id} holds ({c.r}, {c.d}) data, expected ({r}, {d})"
                )
        if isinstance(data, Population):
            return data
        return cls(
            np.concatenate([c.features for c in clients]),
            np.concatenate([c.labels for c in clients]),
            np.array([c.client_id for c in clients]),
        )

    def __len__(self) -> int:
        return self.client_ids.size

    def __getitem__(self, i):
        at = range(len(self))[i]  # one index, or a range for a slice
        if isinstance(at, range):
            return [self[j] for j in at]
        rows = slice(at * self.r, (at + 1) * self.r)
        cid = int(self.client_ids[at])
        return ClientDataset._of_rows(cid, self.features[rows], self.labels[rows])

    @property
    def r(self) -> int:
        return self.features.shape[0] // self.client_ids.size

    @property
    def d(self) -> int:
        return self.features.shape[1]


def synthetic_logistic_data(
    m: int, r: int, d: int, seed: int, theta_norm: float = 1.5
) -> tuple[Population, np.ndarray]:
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
    return Population(feats, labels, np.arange(m)), theta_star


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
    pop = Population.of(clients)
    records = np.concatenate([pop.features, pop.labels[:, None]], axis=1).astype(">f8")
    with open_output(path, binary=True) as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(len(pop), pop.r, pop.d))
        fh.write(records.tobytes(order="C"))


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read dataset ({exc.strerror or exc})") from exc


def load_dataset_binary(path) -> Population:
    """Read the documented binary layout back into a Population."""
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
    records = np.frombuffer(body, dtype=">f8").reshape(m * r, d + 1)
    return Population(records[:, :d], records[:, d], np.arange(m))


def save_dataset_csv(path, clients) -> None:
    """CSV alternative: header client_id,x0,...,x{d-1},label then one row per point."""
    pop = Population.of(clients)
    with open_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["client_id"] + [f"x{j}" for j in range(pop.d)] + ["label"])
        ids = np.repeat(pop.client_ids, pop.r).tolist()
        for cid, x, y in zip(ids, pop.features.tolist(), pop.labels.tolist()):
            writer.writerow([cid] + [repr(v) for v in x] + [repr(y)])


def load_dataset_csv(path) -> Population:
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
    arr = np.asarray([row for cid in order for row in rows_by_client[cid]], dtype=np.float64)
    return Population(arr[:, :d], arr[:, d], np.array(order))
