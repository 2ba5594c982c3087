"""Client datasets for the federated simulator: synthesis, save, load.

The balanced setting is assumed throughout: every one of the m clients holds
exactly r (feature, label) points of dimension d. A ``Population`` holds all
of them as one read-only (m*r, d) feature matrix, (m*r,) labels and (m,)
client ids, client i owning rows [i*r, (i+1)*r). It is checked once, when it
is built. A client is a one-client ``Population``: a read-only view of its
rows and id. The synthesizer and the loaders return a population,
``fedsim.train`` reads its arrays directly, and the savers write from them;
``_require_population`` is the one check that their data is a population of
the expected (m, r, d).

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
from ..linalg import _as_floats

_MAGIC = b"CLDPDS01"
_HEADER = struct.Struct(">III")

DATA_SALT = 0x44415441  # distinguishes the data-synthesis RNG stream


@dataclass(frozen=True, eq=False)
class Population(Sequence):
    """m balanced clients as features (m*r, d), labels (m*r,) and client ids (m,).

    Client i owns rows [i*r, (i+1)*r). The arrays are C-contiguous and
    read-only, the data float64 and the ids 64-bit integers; they are checked
    here, once. Indexing gives client i as a one-client Population: a view of
    its rows and id, not checked again. Populations are equal when their
    arrays are.
    """

    features: np.ndarray
    labels: np.ndarray
    client_ids: np.ndarray

    def __post_init__(self) -> None:
        try:
            feats = np.ascontiguousarray(_as_floats(self.features))
            labs = np.ascontiguousarray(_as_floats(self.labels))
            ids = np.ascontiguousarray(self.client_ids)
        except (TypeError, ValueError):
            raise ValidationError("client data must be real numbers") from None
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
    def _of_rows(cls, features: np.ndarray, labels: np.ndarray, client_ids: np.ndarray):
        """A population over views of a checked population's read-only rows,
        every field set here: the constructor's check would only repeat it."""
        pop = object.__new__(cls)
        object.__setattr__(pop, "features", features)
        object.__setattr__(pop, "labels", labels)
        object.__setattr__(pop, "client_ids", client_ids)
        return pop

    def __len__(self) -> int:
        return self.client_ids.size

    def __getitem__(self, i):
        at = range(len(self))[i]  # one index, or a range for a slice
        if isinstance(at, range):
            return [self[j] for j in at]
        rows = slice(at * self.r, (at + 1) * self.r)
        return self._of_rows(
            self.features[rows], self.labels[rows], self.client_ids[at : at + 1]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Population) and (
            np.array_equal(self.client_ids, other.client_ids)
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
        )

    __hash__ = None  # equal by value, and a view shares its arrays

    @property
    def r(self) -> int:
        return self.features.shape[0] // self.client_ids.size

    @property
    def d(self) -> int:
        return self.features.shape[1]


def _require_population(data, shape: tuple[int, int, int] | None = None) -> Population:
    """``data`` itself when it is a Population, of ``shape`` = (m, r, d) when
    one is given; the one check of ``train``'s and the savers' data."""
    if not isinstance(data, Population):
        raise ValidationError(f"data must be a Population, got {data!r:.200}")
    if shape is not None and (len(data), data.r, data.d) != tuple(shape):
        m, r, d = shape
        raise ValidationError(
            f"expected {m} clients of ({r}, {d}) data, got {len(data)} of ({data.r}, {data.d})"
        )
    return data


def synthetic_logistic_data(
    m: int, r: int, d: int, seed: int, theta_norm: float = 1.5
) -> tuple[Population, np.ndarray]:
    """m balanced clients of r points each, plus the planted parameter vector.

    Features are uniform on the unit l2 sphere; labels are -1/+1 drawn from
    the logistic model at the planted vector (a uniformly random direction
    scaled to theta_norm).
    """
    m, r, d = (require_int(v, name, "[1, inf)") for v, name in ((m, "m"), (r, "r"), (d, "d")))
    seed = require_int(seed, "seed", "[0, inf)")
    require_real(theta_norm, "theta_norm", "[0, inf)")
    gen = np.random.default_rng(np.random.SeedSequence((seed, DATA_SALT)))
    direction = gen.standard_normal(d)
    direction /= np.linalg.norm(direction)
    theta_star = theta_norm * direction
    feats = gen.standard_normal((m * r, d))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    p_plus = 1.0 / (1.0 + np.exp(-feats @ theta_star))
    labels = np.where(gen.random(m * r) < p_plus, 1.0, -1.0)
    return Population(feats, labels, np.arange(m)), theta_star


def _require_path(path):
    """path itself when it can name a file (a str, bytes or os.PathLike), else ValidationError."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ValidationError(f"expected a file path, got {path!r:.200}")
    return path


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
    target = os.path.realpath(_require_path(path))
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


def save_dataset_binary(path, clients: Population) -> None:
    """Write the documented binary layout; client ids become positional."""
    pop = _require_population(clients)
    records = np.concatenate([pop.features, pop.labels[:, None]], axis=1).astype(">f8")
    with open_output(path, binary=True) as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(len(pop), pop.r, pop.d))
        fh.write(records.tobytes(order="C"))


def _read_bytes(path) -> bytes:
    try:
        with open(_require_path(path), "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read dataset ({exc.strerror or exc})") from exc


def load_dataset(path) -> Population:
    """Read a dataset file once, binary if it starts with the magic, else CSV."""
    blob = _read_bytes(path)
    return (_parse_binary if blob.startswith(_MAGIC) else _parse_csv)(blob, path)


def load_dataset_binary(path) -> Population:
    """Read the documented binary layout back into a Population."""
    return _parse_binary(_read_bytes(path), path)


def _parse_binary(blob: bytes, path) -> Population:
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


def save_dataset_csv(path, clients: Population) -> None:
    """CSV alternative: header client_id,x0,...,x{d-1},label then one row per point."""
    pop = _require_population(clients)
    with open_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["client_id"] + [f"x{j}" for j in range(pop.d)] + ["label"])
        ids = np.repeat(pop.client_ids, pop.r).tolist()
        for cid, x, y in zip(ids, pop.features.tolist(), pop.labels.tolist()):
            writer.writerow([cid] + [repr(v) for v in x] + [repr(y)])


def load_dataset_csv(path) -> Population:
    """Read the CSV alternative (UTF-8): equally many, contiguous rows per client."""
    return _parse_csv(_read_bytes(path), path)


def _parse_csv(blob: bytes, path) -> Population:
    rows: list[list[float]] = []
    sizes: dict[int, int] = {}  # row counts by client id, in file order
    cid = None
    try:
        reader = csv.reader(io.StringIO(blob.decode(), newline=""))
        header = next(reader, [])
        if len(header) < 3 or header[0] != "client_id" or header[-1] != "label":
            raise ValidationError(f"{path}: unexpected CSV header {header!r}")
        d = len(header) - 2
        for row in reader:
            if len(row) != d + 2:
                raise ValidationError(f"{path}: row of width {len(row)}, expected {d + 2}")
            last, cid = cid, int(row[0])
            if cid != last and cid in sizes:
                raise ValidationError(f"{path}: the rows of client {cid} are not contiguous")
            rows.append([float(v) for v in row[1:]])
            sizes[cid] = sizes.get(cid, 0) + 1
    except ValidationError:
        raise
    except (ValueError, csv.Error) as exc:  # non-UTF-8 bytes, a non-numeric field
        raise ValidationError(f"{path}: malformed CSV dataset ({exc})") from None
    if not sizes:
        raise ValidationError(f"{path}: no data rows")
    counts = set(sizes.values())
    if len(counts) != 1:
        raise ValidationError(f"{path}: clients hold unequal point counts {sorted(counts)}")
    arr = np.asarray(rows, dtype=np.float64)
    return Population(arr[:, :d], arr[:, d], np.array(list(sizes)))
