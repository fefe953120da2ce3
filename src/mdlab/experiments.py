"""Config-driven sweeps over (n, x) grids with resumable CSV output.

A sweep evaluates the tail ratios

* ``ratio_max = P(max_k S_k >= x V_n) / (1 - Phi(x))``  (limit 2),
* ``ratio_sum = P(S_n >= x V_n) / (1 - Phi(x))``        (limit 1),

one row per (n, x), preferring exact oracles and falling back to Monte
Carlo when an instance exceeds the oracle budgets. Rows are appended to
the CSV in row-index order as they complete, with floats serialized at 17
significant digits, so a rerun with the same config and seed reproduces
the file byte for byte and an interrupted sweep resumes cleanly. A
manifest next to the CSV records the config, the Monte Carlo stream
version and the Python and numpy versions the bytes depend on; no output
depends on scipy.

The per-row ``probe`` column reports the normalized third-moment error
``(ratio_max - 2) * (E X^2)^(3/2) / ((1 + x^3) E|X|^3)``; values are
reported only, never gated, since the finite-n behaviour of this
normalization is an open numerical question.

Config files are flat JSON documents; see :class:`SweepConfig`.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import __version__
from .distributions import STREAM_VERSION, Distribution, TwoPoint, from_literal
from .errors import (BudgetExceededError, ConfigError, InfeasibleError, MdlabError, check_finite,
                     read_json)
from .mc import DEFAULT_SEED, _check_path_steps, _check_seed, _thread_map, choose_tilt, simulate
from .oracle import DP_THREAD_MIN_N, _step_ratio, exact_method
from .oracle import lattice_dp_max  # noqa: F401  (the benchmark tracer asserts this alias)
from .theory import (SequenceSpec, _dnr, check_parameters, compute_quantities, error_envelope,
                     normal_tail)

# the interpreter's own sha256, as random.py takes its sha512: hashlib
# loads OpenSSL's libcrypto, about 3.6 MB of RSS, for this one digest
try:
    from _sha2 import sha256 as _sha256  # Python 3.12 on
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:  # an interpreter built without its own sha256
        from hashlib import sha256 as _sha256

__all__ = [
    "SweepConfig",
    "RatioRow",
    "run_sweep",
    "convergence_report",
    "CSV_COLUMNS",
]

_Z95 = 1.959963984540054


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


# declared field type -> parser for the CSV text
_PARSE = {"int": int, "float": float, "str": str}
_JSON_TYPES = {"int": int, "bool": bool, "str": str, "dict": dict}


def _config_value(name: str, kind: str, value):
    """A JSON config value as its declared field type ``kind``: null only
    where the field is Optional, finite numbers where numbers are due (an
    integral float such as 1e5 counts as an int), and no casts of strings."""
    if value is None and kind.startswith("Optional"):
        return None
    if "tuple" in kind:
        if not isinstance(value, list):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(_config_value(name, "int" if "int" in kind else "float", v) for v in value)
    if "float" in kind:
        return check_finite(name, value)
    if kind == "int" and isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _JSON_TYPES[kind]):
        raise ConfigError(f"{name} must be a JSON {kind}, got {value!r}")
    return value


@dataclass(frozen=True)
class SweepConfig:
    """Flat sweep configuration.

    Exactly one of ``x_values`` (explicit levels, applied to every n) or
    ``x_c`` (scaling rule ``x = c * n^x_power``, default power
    ``r / (4 + 2r)``) must be given. ``engine="oracle"`` prefers the exact
    methods and falls back to Monte Carlo when ``mc_fallback`` is set;
    ``engine="mc"`` always simulates. ``workers`` (the most rows that
    :func:`run_sweep` runs at once) and ``output`` are execution details
    and excluded from :meth:`canonical`. ``dist`` is
    stored as its normalized literal, defaults filled in and numbers as
    floats, so each sweep has one canonical form however it was spelled.
    """

    dist: dict
    n_grid: tuple[int, ...]
    output: str
    x_values: Optional[tuple[float, ...]] = None
    x_c: Optional[tuple[float, ...]] = None
    x_power: Optional[float] = None
    r: float = 1.0
    delta: float = 1.0
    engine: str = "oracle"
    mc_method: str = "naive"
    mc_samples: int = 100_000
    mc_fallback: bool = True
    seed: int = DEFAULT_SEED
    a0_constant: float = 1.0
    workers: int = 1

    def __post_init__(self):
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ConfigError("n_grid must be strictly increasing")
        if any(n < 1 for n in self.n_grid):
            raise ConfigError("n_grid entries must be >= 1")
        if (self.x_values is None) == (self.x_c is None):
            raise ConfigError("give exactly one of x_values or x_c")
        if self.x_c is not None and any(c <= 0 for c in self.x_c):
            raise ConfigError("x_c entries must be > 0")
        if self.engine not in ("oracle", "mc"):
            raise ConfigError(f"engine must be 'oracle' or 'mc', got {self.engine!r}")
        if self.mc_method not in ("naive", "tilted"):
            raise ConfigError(f"mc_method must be 'naive' or 'tilted', got {self.mc_method!r}")
        if self.mc_samples < 1000:
            raise ConfigError(f"mc_samples must be >= 1000, got {self.mc_samples}")
        if not os.path.basename(self.output):
            raise ConfigError(f"output must name a file, got {self.output!r}")
        # every value a row uses is checked, and the parts of every row that
        # can fail are evaluated, here: before any file is written. The
        # theory fields are kept, by row index, for compute_row
        check_parameters(self.r, self.delta, self.a0_constant)
        dist = self.distribution()
        object.__setattr__(self, "dist", dist.literal())
        SequenceSpec(dist, 1)
        try:
            jobs = self.jobs()
        except OverflowError:
            raise ConfigError("x_c * n^x_power overflows a double") from None
        theory = []
        for idx, n, x in jobs:
            # past the normal doubles the tail loses digits
            if normal_tail(check_finite("x", x, 0.0)) < sys.float_info.min:
                raise InfeasibleError(f"1 - Phi({x}) is below the normal double range")
            theory.append(_theory_fields(dist, n, x, self))
            seq = SequenceSpec(dist, n)
            if _oracle(self, seq) is None:
                _check_seed(self.seed + idx, f"the seed of Monte Carlo row {idx} (seed + {idx})")
                _check_path_steps(n, self.mc_samples)
                if self.mc_method == "tilted":
                    choose_tilt(seq, x)
        object.__setattr__(self, "_theory", theory)  # not a field: no hash or manifest sees it

    @classmethod
    def _field_values(cls, raw: dict) -> dict:
        """The fields a config document gives, each as its declared type; no
        row is checked and no default filled in."""
        raw = {k: v for k, v in raw.items() if k != "tau"}  # a legacy key that nothing read
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "dist" not in raw or "n_grid" not in raw or "output" not in raw:
            raise ConfigError("config requires 'dist', 'n_grid', and 'output'")
        if raw.get("x_c") is not None and not isinstance(raw["x_c"], list):
            raw = {**raw, "x_c": [raw["x_c"]]}  # a single scaling constant
        return {f.name: _config_value(f.name, f.type, raw[f.name]) for f in fields(cls) if f.name in raw}

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepConfig":
        return cls(**cls._field_values(raw))

    @classmethod
    def from_file(cls, path: str) -> "SweepConfig":
        raw = read_json(path, "config", dict)
        if "tau" in raw:
            print(f"mdlab: {path}: ignoring the config key 'tau', which mdlab no longer reads",
                  file=sys.stderr)
        return cls.from_dict(raw)

    def distribution(self) -> Distribution:
        return from_literal(self.dist)

    def x_levels(self, n: int) -> list[float]:
        if self.x_values is not None:
            return list(self.x_values)
        power = self.x_power
        if power is None:
            power = self.r / (4.0 + 2.0 * self.r)
        return [c * n**power for c in self.x_c]

    def jobs(self) -> list[tuple[int, int, float]]:
        """(row_index, n, x) in fixed execution order."""
        out = []
        idx = 0
        for n in self.n_grid:
            for x in self.x_levels(n):
                out.append((idx, n, x))
                idx += 1
        return out

    def canonical(self) -> dict:
        """Semantic content only; execution details excluded."""
        out = asdict(self)
        del out["output"], out["workers"]
        return out

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return _sha256(blob.encode()).hexdigest()

    def manifest_path(self) -> str:
        return self.output + ".manifest.json"


@dataclass(frozen=True)
class RatioRow:
    """One (n, x) result row; the fields, in declaration order, are the CSV
    columns. Floats are written at 17 significant digits."""

    n: int
    x: float
    p_max: float
    p_sum: float
    tail: float
    ratio_max: float
    ratio_sum: float
    ci_low: float
    ci_high: float
    probe: float
    delta_nx: float
    dnr: float
    n0: int
    epsilon: float
    method: str
    samples: int
    seed: int

    def to_csv_line(self) -> str:
        return ",".join(
            (_fmt if f.type == "float" else str)(getattr(self, f.name))
            for f in fields(self)
        )

    @classmethod
    def from_csv_line(cls, line: str) -> "RatioRow":
        parts = line.rstrip("\n").split(",")
        try:
            values = [_PARSE[f.type](p) for f, p in zip(fields(cls), parts, strict=True)]
        except ValueError:
            raise ConfigError(f"malformed CSV row: {line!r}") from None
        return cls(*values)


CSV_COLUMNS = [f.name for f in fields(RatioRow)]


def _wilson_interval(p_hat: float, n: int) -> tuple[float, float]:
    """95% Wilson score interval; stable at tiny p_hat."""
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    center = (p_hat + z2 / (2.0 * n)) / denom
    half = _Z95 * math.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _theory_fields(dist: Distribution, n: int, x: float, cfg: SweepConfig):
    """(delta_nx, dnr, n0, epsilon); the x = 0 limit is handled explicitly
    because the functionals divide by x."""
    seq = SequenceSpec(dist, n)
    if x == 0.0:
        try:  # the moments compute_quantities checks at x > 0; E|X|^3 is the probe's
            lnr = seq.abs_moment_sum(2.0 + cfg.r)
            dist.abs_moment(3.0)
        except OverflowError:
            raise InfeasibleError(f"the moments of {dist} overflow a double") from None
        return 0.0, _dnr(seq.variance_sum(), lnr, cfg.r), 0, math.inf
    q = compute_quantities(seq, x, cfg.r, cfg.delta, cfg.a0_constant)
    return q.delta_nx, q.dnr, q.n0, q.epsilon


def _oracle(cfg: SweepConfig, seq: SequenceSpec):
    """The exact method ``x -> ExactResult`` of the rows of ``seq``, or None
    when they run Monte Carlo."""
    if cfg.engine == "mc":
        return None
    engine = exact_method(seq)
    if engine is None and not cfg.mc_fallback:
        raise BudgetExceededError(f"n={seq.n} exceeds every oracle budget and mc_fallback is off")
    return engine


def _gains_from_a_thread(cfg: SweepConfig, n: int) -> bool:
    """Whether the rows at ``n`` finish sooner beside another row in a second
    thread: Monte Carlo rows and :func:`~mdlab.oracle.twopoint_dp` rows from
    ``DP_THREAD_MIN_N`` on do. Shorter rows, :func:`~mdlab.oracle.hitting_time`
    ones at every n among them, hold the GIL for most of their time."""
    seq = SequenceSpec(cfg.distribution(), n)
    if _oracle(cfg, seq) is None:
        return True
    dist = seq.dist
    on_the_dp = isinstance(dist, TwoPoint) and _step_ratio(dist.a, dist.b) is None
    return on_the_dp and n >= DP_THREAD_MIN_N


def compute_row(cfg: SweepConfig, row_index: int, n: int, x: float) -> RatioRow:
    """Evaluate job ``(row_index, n, x)`` of ``cfg.jobs()``; deterministic
    given the config.

    Monte Carlo rows use ``seed + row_index`` so every row owns an
    independent, resume-stable stream family.
    """
    dist = cfg.distribution()
    seq = SequenceSpec(dist, n)
    row_seed = cfg.seed + row_index
    tail = normal_tail(x)

    oracle = _oracle(cfg, seq)
    if oracle is not None:
        res = oracle(x)
        p_max, p_sum, method, samples = res.p_max, res.p_sum, res.method, 0
        ci_low = ci_high = p_max / tail
    else:
        est_max, est_sum = simulate(seq, x, cfg.mc_samples, seed=row_seed, method=cfg.mc_method)
        p_max, p_sum = est_max.p_hat, est_sum.p_hat
        method, samples = cfg.mc_method, cfg.mc_samples
        if cfg.mc_method == "naive":
            lo, hi = _wilson_interval(p_max, cfg.mc_samples)
        else:
            lo = max(0.0, p_max - _Z95 * est_max.stderr)
            hi = p_max + _Z95 * est_max.stderr
        ci_low, ci_high = lo / tail, hi / tail

    ratio_max = p_max / tail
    ratio_sum = p_sum / tail

    ex2 = dist.variance()
    ex3 = dist.abs_moment(3.0)
    probe = (ratio_max - 2.0) * ex2**1.5 / ((1.0 + x**3) * ex3)
    delta_nx, dnr, n0, epsilon = cfg._theory[row_index]
    return RatioRow(
        n=n, x=x, p_max=p_max, p_sum=p_sum, tail=tail, ratio_max=ratio_max,
        ratio_sum=ratio_sum, ci_low=ci_low, ci_high=ci_high, probe=probe,
        delta_nx=delta_nx, dnr=dnr, n0=n0, epsilon=epsilon, method=method,
        samples=samples, seed=row_seed,
    )


def _read_completed(csv_path: str) -> tuple[list[str], int]:
    """The complete data lines already on disk, and the bytes of the CSV up
    to the end of its last complete line; a trailing partial line (from a
    kill mid-write) is discarded. A missing file gives ``([], 0)``."""
    try:
        with open(csv_path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
    except FileNotFoundError:
        return [], 0
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {csv_path}: {exc}") from exc
    return text.split("\n")[1:-1], data.rfind(b"\n") + 1  # drop the header and the partial tail


def _library_versions() -> dict:
    """The versions a sweep's bytes depend on besides ``STREAM_VERSION``:
    numpy's bit generators and samplers, and the Python whose libm
    evaluates the special functions."""
    return {"python": ".".join(map(str, sys.version_info[:3])), "numpy": np.__version__}


def _warn_on_other_versions(manifest: dict, path: str):
    """One stderr line naming each library version the manifest recorded
    that differs from the running one; a manifest without them is silent."""
    changed = [f"{name} {manifest[name]} (now {version})"
               for name, version in _library_versions().items()
               if name in manifest and manifest[name] != version]
    if changed:
        print(f"mdlab: {path} was written with {', '.join(changed)}; the rows it holds may "
              "not reproduce byte for byte", file=sys.stderr)


def _write_manifest(cfg: SweepConfig):
    manifest = {
        "config": cfg.canonical(),
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "stream_version": STREAM_VERSION,
        "tool_version": __version__,
        "columns": CSV_COLUMNS,
        **_library_versions(),
    }
    # written aside and renamed over the old one, so a failed write leaves
    # the manifest that was there, not a torn one that strands the CSV; the
    # name aside is no longer than the manifest's, so every name that fits
    # the file system still does
    path, aside = cfg.manifest_path(), cfg.output + ".manifest.tmp"
    try:
        with open(aside, "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
        os.replace(aside, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(aside)
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _same_config(manifest: dict, cfg: SweepConfig) -> bool:
    """Whether the config a manifest recorded means ``cfg``: it is parsed and
    normalized like ``cfg``, so spellings of one sweep match, and a recorded
    config that no longer parses matches nothing. Its rows are not checked:
    ``cfg``'s were, and a recorded config equal to it has the same rows."""
    recorded = manifest.get("config")
    if not isinstance(recorded, dict):
        return False
    try:
        values = SweepConfig._field_values({**recorded, "output": cfg.output})
        values["dist"] = from_literal(values["dist"]).literal()
    except MdlabError:
        return False
    canonical = cfg.canonical()
    return canonical == {f.name: values.get(f.name, f.default)
                         for f in fields(SweepConfig) if f.name in canonical}


def run_sweep(
    cfg: SweepConfig,
    workers: Optional[int] = None,
    stop_after_rows: Optional[int] = None,
) -> list[RatioRow]:
    """Run (or resume) a sweep, returning all rows in row-index order.

    Rows run one after another in the calling thread unless ``workers > 1``
    and some row still to run gains from a second thread (a Monte Carlo
    row, or a DP row at ``n >= DP_THREAD_MIN_N``); then they run up to
    ``workers`` at a time in a thread pool. Either way they are flushed to
    the CSV strictly in row-index order, so the file content never depends
    on the worker count and any prefix of it is a valid partial result.
    ``stop_after_rows`` stops after that many newly written rows, which is
    how tests exercise interruption and resume. A CSV without a manifest,
    whose manifest recorded another config (after normalizing both), whose
    rows do not match the config's jobs, or whose Monte Carlo rows
    come from another stream version than this one, is refused untouched.
    A resume whose manifest recorded other Python or numpy versions than
    the running ones says so in one stderr line.
    """
    workers = cfg.workers if workers is None else workers
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    jobs = cfg.jobs()

    if os.path.exists(cfg.manifest_path()):
        manifest = read_json(cfg.manifest_path(), "sweep manifest", dict)
        if not _same_config(manifest, cfg):
            raise ConfigError(
                f"{cfg.output} was produced by a different config; refusing "
                "to mix results (delete the output or change the path)"
            )
        done_lines, kept = _read_completed(cfg.output)
        if len(done_lines) > len(jobs):
            raise ConfigError(f"{cfg.output} holds more rows than the config defines")
        mc_rows = 0
        for line, (idx, n, x) in zip(done_lines, jobs):
            row = RatioRow.from_csv_line(line)
            if (row.n, _fmt(row.x)) != (n, _fmt(x)):  # -0.0 == 0.0, but not in the CSV
                raise ConfigError(
                    f"{cfg.output} row {idx} is for (n={row.n}, x={row.x}), "
                    f"expected (n={n}, x={x}); refusing to resume"
                )
            mc_rows += row.method in ("naive", "tilted")
        # a manifest from before stream versions were recorded is version 1
        version = manifest.get("stream_version", 1)
        if version != STREAM_VERSION:
            if mc_rows:
                raise ConfigError(
                    f"{cfg.output} holds Monte Carlo rows drawn by stream version "
                    f"{version}, and this mdlab draws version {STREAM_VERSION}; refusing "
                    "to mix them (delete the output or change the path)"
                )
            _write_manifest(cfg)  # only exact rows so far: the rows to come set the version
        _warn_on_other_versions(manifest, cfg.manifest_path())
    elif os.path.exists(cfg.output):
        raise ConfigError(
            f"{cfg.output} exists without its manifest; refusing to overwrite it"
        )
    else:
        try:
            os.makedirs(os.path.dirname(os.path.abspath(cfg.output)), exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make the directory of {cfg.output}: {exc}") from exc
        _write_manifest(cfg)
        done_lines, kept = [], 0

    pending = jobs[len(done_lines):]
    if stop_after_rows is not None:
        pending = pending[:stop_after_rows]
    pooled = workers > 1 and any(_gains_from_a_thread(cfg, n) for _, n, _ in pending)

    # a resume cuts a partial trailing line off in place and appends to the
    # header and rows on disk, which no failed write can then lose; a file
    # without a complete line gets the header first. New rows follow as map
    # yields them: in row-index order
    try:
        if kept:
            os.truncate(cfg.output, kept)
        fh = open(cfg.output, "a" if kept else "w", newline="")
        with fh, _thread_map(workers if pooled else 1) as run_rows:
            if not kept:
                fh.write(",".join(CSV_COLUMNS) + "\n")
                fh.flush()
            for row in run_rows(lambda job: compute_row(cfg, *job), pending):
                fh.write(row.to_csv_line() + "\n")
                fh.flush()
    except OSError as exc:
        raise ConfigError(f"cannot write {cfg.output}: {exc}") from exc

    return [RatioRow.from_csv_line(line) for line in _read_completed(cfg.output)[0]]


def convergence_report(rows: list[RatioRow], delta: float = 1.0) -> dict:
    """Summarize how the ratios approach their limits 2 and 1.

    Rows are grouped into trajectories sharing the same x (explicit
    grids); if every x is unique the whole sweep is treated as a single
    trajectory ordered by n (scaling rules). Each trajectory reports the
    error sequences, a trend flag ("decreasing" allows MC noise at twice
    the CI half-width, "flat" means identical ratios), and the report fits
    a single multiplicative constant for the error envelope
    ``x^(-min(1/4, delta/20)) + delta_nx^(1/9)`` across all rows; the fit
    is absent when the envelope has no variation to regress on.
    """
    if len(rows) < 3:
        raise ConfigError(f"convergence report needs >= 3 rows, got {len(rows)}")
    groups: dict[float, list[RatioRow]] = {}
    for row in rows:
        groups.setdefault(row.x, []).append(row)
    if all(len(g) == 1 for g in groups.values()):
        groups = {math.nan: sorted(rows, key=lambda r: (r.n, r.x))}

    trajectories = []
    for xval, grp in sorted(groups.items(), key=lambda kv: kv[0]):
        grp = sorted(grp, key=lambda r: r.n)
        err_max = [abs(r.ratio_max - 2.0) for r in grp]
        err_sum = [abs(r.ratio_sum - 1.0) for r in grp]
        if all(r.ratio_max == grp[0].ratio_max for r in grp):
            trend = "flat"
        else:
            # MC rows get slack of twice the CI half-width
            slack = [r.ci_high - r.ci_low for r in grp]
            decreasing = all(
                err_max[i + 1] <= err_max[i] + slack[i + 1]
                for i in range(len(grp) - 1)
            )
            trend = "decreasing" if decreasing else "non-monotone"
        trajectories.append(
            {
                "x": None if math.isnan(xval) else xval,
                "n": [r.n for r in grp],
                "abs_err_max_ratio": err_max,
                "abs_err_sum_ratio": err_sum,
                "trend": trend,
                "final_err_max": err_max[-1],
                "final_err_sum": err_sum[-1],
            }
        )

    usable = [r for r in rows if r.x > 0.0]
    envelope = [error_envelope(r.x, r.delta_nx, delta) for r in usable]
    errors = [abs(r.ratio_max - 2.0) for r in usable]
    fitted_c = None
    if len(usable) >= 3 and len(set([(r.x, r.delta_nx) for r in usable])) > 1:
        sxx = math.fsum(b * b for b in envelope)
        if sxx > 0.0:
            fitted_c = math.fsum(e * b for e, b in zip(errors, envelope)) / sxx
    return {"trajectories": trajectories, "fitted_c": fitted_c}
