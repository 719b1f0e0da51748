"""Synthetic data-generating processes and dataset I/O.

Five processes are supported, each pairing a design X ~ N(0, x_cov) with a
response mechanism:

===========================================================  ==============
kind                 response                                  loss kind
===========================================================  ==============
linear_wellspec      y = theta0'x + N(0, 1)                   squared
linear_misspec_t     y = theta0'x + t_{noise_df} (unit        squared
                     scale), heavier tails than the
                     Gaussian working model
logistic_wellspec    y = +1 w.p. sigma(theta0'x), else -1     logistic
poisson_wellspec     y ~ Poisson(exp(theta0'x))               poisson
gaussian_expfam_     raw vectors z with coordinates           score_matching
scorematch           z_j ~ N(a_j/b_j, 1/b_j) for
                     theta0 = (a, b), b > 0
===========================================================  ==============

All randomness flows through the counter-based Philox generator seeded via
``numpy.random.SeedSequence``, with the design and the response drawn from
two spawned child streams.  Responses are sampled with fixed or sequential
stream consumption, so the first n rows of ``generate(process, 2n, seed)``
equal ``generate(process, n, seed)`` exactly.  A Philox stream is fixed
by its key alone, so the datasets of a range of seeds are drawn as one
block (:func:`_draw`), of which ``generate`` is the case of one: the keys
of every seed's two children come from one pass of numpy's SeedSequence
hash, reproduced here over arrays of seeds (:func:`_philox_keys`, which
also keys the bootstrap's multipliers), and one Philox is re-keyed to
each stream in turn.  Poisson responses are drawn
by inversion, not rejection, through ``scipy.special.pdtrik`` and ``pdtr``:
the formula of SciPy's ``poisson.ppf``, bit for bit, without importing
SciPy's statistics package, which would double the start-up time.

Datasets round-trip through CSV (header ``x1..xd[,y]``) at full double
precision, and :func:`write_table` is the one writer of the tables that
studies produce.  This module generates and stores data only: the loop
that fits and measures replications of an experiment is the
replicate-and-fit loop of :mod:`scmest.estimate`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields

import numpy as np
from scipy.special import expit, pdtr, pdtrik

from .errors import DimensionMismatch, DomainError, EmptyDataset, ParseError
from .errors import check_integer, check_nonnegative_int

__all__ = [
    "PROCESS_KINDS",
    "Process",
    "Dataset",
    "Provenance",
    "generate",
    "theta0_equispaced",
    "loss_kind_for",
    "phase_seed",
    "read_csv",
    "write_csv",
    "write_table",
]

PROCESS_KINDS = (
    "linear_wellspec",
    "linear_misspec_t",
    "logistic_wellspec",
    "poisson_wellspec",
    "gaussian_expfam_scorematch",
)

# Poisson inversion takes u in (0, 1), where it is SciPy's poisson.ppf bit
# for bit; ppf's convention maps u = 0 to -1
_U_FLOOR = 1e-300


@dataclass(frozen=True)
class Process:
    """A synthetic data-generating process.

    Attributes
    ----------
    kind : str
        One of ``PROCESS_KINDS``.
    theta0 : (d,) array
        True parameter.  For ``gaussian_expfam_scorematch`` this is (a, b)
        with the precision block b strictly positive and d even.
    x_cov : (d, d) SPD array, optional
        Design covariance; identity when omitted.  Ignored by the
        score-matching process, whose raw samples are set by theta0 alone.
    noise_df : float
        Student-t degrees of freedom (linear_misspec_t only).
    """

    kind: str
    theta0: np.ndarray
    x_cov: np.ndarray | None = None
    noise_df: float = 3.5

    def __post_init__(self) -> None:
        if self.kind not in PROCESS_KINDS:
            raise DomainError(f"unknown process kind {self.kind!r}")
        theta0 = np.asarray(self.theta0, dtype=float)
        object.__setattr__(self, "theta0", theta0)
        if theta0.ndim != 1 or theta0.size < 1 or not np.all(np.isfinite(theta0)):
            raise DomainError("theta0 must be a finite nonempty vector")
        if self.x_cov is not None:
            cov = np.asarray(self.x_cov, dtype=float)
            object.__setattr__(self, "x_cov", cov)
            if cov.shape != (self.d, self.d):
                raise DimensionMismatch(
                    f"x_cov has shape {cov.shape}, expected ({self.d}, {self.d})"
                )
            if np.abs(cov - cov.T).max() > 1e-12 * max(1.0, np.abs(cov).max()):
                raise DomainError("x_cov must be symmetric")
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise DomainError("x_cov must be positive definite") from None
        if self.noise_df <= 2.0:
            raise DomainError("noise_df must exceed 2 for finite noise variance")
        if self.kind == "gaussian_expfam_scorematch":
            if self.d % 2 != 0:
                raise DomainError("score-matching process needs even d = 2p")
            if np.any(theta0[self.d // 2 :] <= 0.0):
                raise DomainError("precision block of theta0 must be positive")

    @property
    def d(self) -> int:
        return int(self.theta0.size)

    def to_config(self) -> dict:
        cfg = {"kind": self.kind, "theta0": self.theta0.tolist()}
        if self.x_cov is not None:
            cfg["x_cov"] = self.x_cov.tolist()
        if self.kind == "linear_misspec_t":
            cfg["noise_df"] = self.noise_df
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "Process":
        known = {"kind", "theta0", "x_cov", "noise_df"}
        extra = set(cfg) - known
        if extra:
            raise ParseError(f"unknown process config keys: {sorted(extra)}")
        if "kind" not in cfg or "theta0" not in cfg:
            raise ParseError("process config needs 'kind' and 'theta0'")
        return cls(
            kind=cfg["kind"],
            theta0=np.asarray(cfg["theta0"], dtype=float),
            x_cov=None if cfg.get("x_cov") is None else np.asarray(cfg["x_cov"], dtype=float),
            noise_df=float(cfg.get("noise_df", 3.5)),
        )


@dataclass(frozen=True)
class Provenance:
    """How a dataset was generated, for reproducibility records."""

    process: Process
    seed: int


@dataclass(frozen=True)
class Dataset:
    """An in-memory dataset: feature matrix plus optional response vector.

    ``y`` is None for score-matching data, where ``X`` holds raw sample
    vectors.  Every value must be finite.
    """

    X: np.ndarray
    y: np.ndarray | None = None
    provenance: Provenance | None = None

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=float)
        object.__setattr__(self, "X", X)
        if X.ndim != 2:
            raise DimensionMismatch(f"X must be 2-d, got shape {X.shape}")
        if X.shape[0] == 0:
            raise EmptyDataset("dataset must contain at least one row")
        if self.y is not None:
            y = np.asarray(self.y, dtype=float)
            object.__setattr__(self, "y", y)
            if y.shape != (X.shape[0],):
                raise DimensionMismatch(
                    f"y has shape {y.shape}, expected ({X.shape[0]},)"
                )
        for name, values in (("X", X), ("y", self.y)):
            if values is not None and not np.isfinite(values).all():
                row = int(np.argmin(np.isfinite(values).reshape(X.shape[0], -1).all(axis=1)))
                raise DomainError(f"{name} has a non-finite value in row {row} (0-based)")

    @property
    def n(self) -> int:
        return int(self.X.shape[0])

    @property
    def d(self) -> int:
        return int(self.X.shape[1])


def theta0_equispaced(d: int) -> np.ndarray:
    """Equispaced true parameter on [0, 1]: (0, 1/(d-1), ..., 1); (0.5) at d=1.

    A d that is not an integer raises DomainError, as does d below 1.
    """
    check_integer("d", d)
    if d < 1:
        raise DomainError(f"d must be positive, got {d}")
    if d == 1:
        return np.array([0.5])
    return np.linspace(0.0, 1.0, d)


def loss_kind_for(process: Process) -> str:
    """The loss kind matching a process's working model."""
    return {
        "linear_wellspec": "squared",
        "linear_misspec_t": "squared",
        "logistic_wellspec": "logistic",
        "poisson_wellspec": "poisson",
        "gaussian_expfam_scorematch": "score_matching",
    }[process.kind]


def generate(process: Process, n: int, seed: int) -> Dataset:
    """Draw n samples from a process, deterministically per seed.

    The design and the response use two child streams spawned from
    ``SeedSequence(seed)``, each driving a Philox generator, so the first n
    rows of a size-2n draw coincide with the size-n draw.  This is the
    block draw :func:`_draw` of one dataset.  A seed that is not a
    nonnegative integer, or an n that is not an integer, raises
    DomainError, and n below 1 EmptyDataset.
    """
    _check_n(n)
    check_nonnegative_int("seed", seed)
    seed = int(seed)
    X, y = _draw(process, n, seed, seed + 1)
    prov = Provenance(process=process, seed=seed)
    return Dataset(X=X[0], y=None if y is None else y[0], provenance=prov)


def _check_n(n) -> None:
    """DomainError unless n is an integer, EmptyDataset unless it is positive."""
    check_integer("n", n)
    if n < 1:
        raise EmptyDataset(f"n must be positive, got {n}")


def _draw(process: Process, n: int, start: int, stop: int):
    """The datasets of seeds [start, stop), stacked: X (m, n, d) and y (m, n).

    Row r is the draw of seed ``start + r``: the design and the response
    come from the two children that ``SeedSequence(start + r)`` spawns,
    each through a Philox generator, and every row equals what those
    generators draw.  The keys of all rows come from one pass of
    :func:`_philox_keys`, one Philox is re-keyed to each row's design key
    and then to its response key (:func:`_streams`), drawing into the
    row, and the responses are formed over the whole block.  For score
    matching X holds the raw samples (m, n, d/2) and y is None.  Nothing
    is checked: the arguments are Python ints, with n >= 1 and
    0 <= start < stop, and the values are checked by whoever holds them, a
    :class:`Dataset` or :func:`~scmest.losses.prepare_stack`.
    """
    m = stop - start
    if process.kind == "gaussian_expfam_scorematch":
        # the design stream alone: the first child's keys do not depend on
        # how many are spawned
        keys = [x_key for (x_key,) in _philox_keys([], start, stop, children=1)]
        p = process.d // 2
        a = process.theta0[:p]
        b = process.theta0[p:]
        Z = np.empty((m, n, p))
        for row, gen in zip(Z, _streams(keys)):
            gen.standard_normal(out=row)
        return a / b + Z / np.sqrt(b), None

    keys = _philox_keys([], start, stop, children=2)

    X = np.empty((m, n, process.d))
    # the response's own draws: N(0, 1) or t noise, or the uniforms u
    draws = np.empty((m, n))
    eta = np.empty((m, n))
    root = None if process.x_cov is None else np.linalg.cholesky(process.x_cov).T
    # the design stream of each row, then its response stream
    streams = _streams([key for pair in keys for key in pair])
    for r in range(m):
        next(streams).standard_normal(out=X[r])
        y_gen = next(streams)
        if process.kind == "linear_wellspec":
            y_gen.standard_normal(out=draws[r])
        elif process.kind == "linear_misspec_t":
            draws[r] = y_gen.standard_t(process.noise_df, size=n)
        else:
            # uniform(size=n), which is 0 + 1 * random() bit for bit
            y_gen.random(out=draws[r])
        # one dataset's matrix products, as BLAS forms them for an (n, d) design
        if root is not None:
            X[r] = X[r] @ root
        eta[r] = X[r] @ process.theta0
    if process.kind in ("linear_wellspec", "linear_misspec_t"):
        y = eta + draws
    elif process.kind == "logistic_wellspec":
        y = np.where(draws < expit(eta), 1.0, -1.0)
    else:
        y = _poisson_quantile(np.maximum(draws, _U_FLOOR), np.exp(eta))
    return X, y


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pool size 4
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_POOL_SIZE = 4
# seeds the Philox of _streams; never spawned from, so its state is fixed
_ANY_SEED = np.random.SeedSequence(0)


def _words(x: int) -> list[int]:
    """The 32-bit words SeedSequence splits a nonnegative integer into, low first."""
    x = int(x)
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _philox_keys(prefix: list[int], start: int, stop: int, children: int = 0) -> list:
    """The Philox keys of ``SeedSequence([*prefix, v])``, v in [start, stop), as Python ints.

    Without ``children`` item v - start is ``generate_state(2, uint64)`` of
    that SeedSequence, the key ``Philox`` takes from it; with them, it
    holds the keys of the first ``children`` SeedSequences it spawns.
    ``SeedSequence(v)`` is ``SeedSequence([v])``.  A range of one takes
    numpy's own SeedSequence, whose hash runs in C; a longer one takes
    one pass of the hash in uint32 arrays per part of the range that
    crosses no multiple of 2**32, whose v share every word but the lowest.
    """
    # Python ints: a numpy integer would carry numpy's scalar arithmetic in
    start, stop = int(start), int(stop)
    if stop - start == 1:
        entropy = [*prefix, start]
        seqs = [np.random.SeedSequence(entropy, spawn_key=(child,)) for child in range(children)]
        seqs = seqs or [np.random.SeedSequence(entropy)]
        words = [seq.generate_state(4).tolist() for seq in seqs]
        # generate_state(2, uint64) reads the four 32-bit words little-endian
        keys = [[w[0] | w[1] << 32, w[2] | w[3] << 32] for w in words]
        return [keys if children else keys[0]]
    head = [w for x in prefix for w in _words(x)]
    keys = []
    while start < stop:
        high = start >> 32
        end = min(stop, (high + 1) << 32)
        low = np.arange(start & _MASK32, (start & _MASK32) + end - start, dtype=np.uint32)
        keys += _hash_keys([*head, low, *(_words(high) if high else [])], children).tolist()
        start = end
    return keys


def _hash_keys(entropy: list, children: int) -> np.ndarray:
    """The keys of :func:`_philox_keys` of one assembled entropy, as a uint64 array.

    Each entropy word is an int or a uint32 array of the range's length,
    and is hashed broadcast to such an array, whose arithmetic wraps at 32
    bits without a warning.  A spawned child appends its index to its
    parent's entropy padded with zeros to the pool size, so the children
    share the pool mixed from the parent's words and differ only in the
    one word mixed in last.
    """
    m = max(np.size(word) for word in entropy)

    def word(x):
        return np.broadcast_to(np.uint32(x), m)

    # a short entropy fills the pool with hashes of 0
    entropy = [word(x) for x in entropy + [0] * (_POOL_SIZE - len(entropy))]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    def add(pool, word):
        return [mix(value, hashmix(word)) for value in pool]

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for extra in entropy[_POOL_SIZE:]:
        pool = add(pool, extra)
    if not children:
        return _state_keys(pool, m)
    keys = np.empty((m, children, 2), dtype=np.uint64)
    shared = hash_const
    for child in range(children):
        hash_const = shared
        keys[:, child] = _state_keys(add(pool, word(child)), m)
    return keys


def _state_keys(pool: list, m: int) -> np.ndarray:
    """generate_state(2, uint64) of a mixed pool: a 32-bit word per pool word, read as two."""
    state = np.empty((m, _POOL_SIZE), dtype="<u4")
    hash_const = _INIT_B
    for i, word in enumerate(pool):
        value = word ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state[:, i] = value ^ (value >> 16)
    return state.view("<u8")


def _streams(keys: list):
    """Yield a generator at the fresh state of each Philox key in turn.

    One Philox is re-keyed per key to a zero counter and an empty buffer,
    the state ``Philox(SeedSequence)`` starts from when its key is the one
    the SeedSequence generates, so each generator draws what a freshly
    built one would.  Each is valid until the next is taken.
    """
    # seeded by a SeedSequence, not a key, which would draw fresh OS entropy
    # for a state the first key replaces
    bitgen = np.random.Philox(_ANY_SEED)
    gen = np.random.Generator(bitgen)
    # in Python ints, which the state setter reads faster than array elements
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in keys:
        state["state"]["key"] = key
        bitgen.state = state
        yield gen


def _poisson_quantile(u: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The smallest k with P(Poisson(mu) <= k) >= u, for u in (0, 1).

    ``pdtrik`` inverts the continuous extension of the CDF; its ceiling
    is k or k + 1 by rounding, and ``pdtr`` one step down decides.  This
    is SciPy's own ``poisson.ppf`` formula, so the two agree bit for bit
    on (0, 1).
    """
    k = np.ceil(pdtrik(u, mu))
    below = np.maximum(k - 1, 0)
    return np.where(pdtr(below, mu) >= u, below, k)


def phase_seed(seed: int, phase: int) -> int:
    """Derive a nonnegative int64 seed base for one phase of an experiment.

    A seed or phase that is not a nonnegative integer raises DomainError.
    """
    check_nonnegative_int("seed", seed)
    check_nonnegative_int("phase", phase)
    state = np.random.SeedSequence([int(seed), int(phase)]).generate_state(1, np.uint64)
    return int(state[0] & np.uint64(0x7FFF_FFFF_FFFF_FFFF))


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset as CSV with header x1..xd[,y], 17 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = [f"x{j + 1}" for j in range(dataset.d)]
        if dataset.y is not None:
            header.append("y")
        writer.writerow(header)
        for i in range(dataset.n):
            row = [f"{v:.17g}" for v in dataset.X[i]]
            if dataset.y is not None:
                row.append(f"{dataset.y[i]:.17g}")
            writer.writerow(row)


def write_table(rows, path, metadata=None) -> None:
    """Write study rows (instances of one dataclass) as a versioned CSV table.

    The file opens with ``# schema_version=1`` and one ``# key=value`` line
    per ``metadata`` item in key order; the header is the row class's field
    names, and floats are written as their shortest round-trip ``repr``.
    A table without rows has no header.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# schema_version=1\n")
        for key in sorted(metadata or {}):
            fh.write(f"# {key}={metadata[key]}\n")
        if not rows:
            return
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(rows[0])])
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in astuple(row)])


def read_csv(path) -> Dataset:
    """Read a dataset written by :func:`write_csv`.

    The header must be ``x1..xd`` optionally followed by ``y``.  A malformed
    or non-finite cell raises ParseError citing its 1-based file row (the
    header is row 1) and column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        has_y = bool(header) and header[-1] == "y"
        feat_names = header[:-1] if has_y else header
        expected = [f"x{j + 1}" for j in range(len(feat_names))]
        if not feat_names or feat_names != expected:
            raise ParseError(
                f"{path}: header must be x1..xd optionally followed by y, got {header}"
            )
        width = len(header)
        X_rows: list[list[float]] = []
        y_vals: list[float] = []
        for r, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ParseError(
                    f"{path}: row {r} has {len(row)} fields, expected {width}"
                )
            vals = []
            for c, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {r}, column {c}: cannot parse {cell!r} as a number"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(f"{path}: row {r}, column {c}: non-finite value {cell!r}")
                vals.append(value)
            if has_y:
                X_rows.append(vals[:-1])
                y_vals.append(vals[-1])
            else:
                X_rows.append(vals)
    if not X_rows:
        raise EmptyDataset(f"{path}: no data rows")
    return Dataset(
        X=np.asarray(X_rows), y=np.asarray(y_vals) if has_y else None
    )
