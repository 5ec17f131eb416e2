"""The sweep configuration: its settings, their defaults and checks, and the
config file format.

An `ExperimentConfig` is everything one sweep depends on. A config file
holds one `key = value` line per setting; `canonical_text` writes every key
once in field order, and its hash keys the sweep's results. The pipeline
defaults and bounds a config is checked against (the source kinds, the
filtration cap, the raw box side, the fewest synthetic points, the density
partition) and the number and code texts that a config shares with the
results file are written here, and homology, dataset, infotheory,
quantizer and harness import them. This module imports only `errors` from
the package, so building or reading a config loads no pipeline module.
"""

import hashlib
import math
import operator
import os
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParseError, write_file

# the kinds of source a pipeline quantizes; the order seeds the folds
SOURCE_KINDS = ("pd", "raw", "latent")
# the filtration cap, the raw box side, the fewest points a synthetic shape
# is sampled with and the density's bins per side: the config's defaults and
# bounds, read by homology, dataset and infotheory
DEFAULT_GAMMA_MAX = 16.0
RAW_BOX_SIDE = 28.0
MIN_SYNTH_POINTS = 8
DEFAULT_PARTITION = 28
# the most values an `a..b` range in a config list expands to
MAX_RANGE = 1000


def number_text(x) -> str:
    """A number as config or results file text."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.10g" % float(x)


def code_label(spec) -> str:
    """The `code` text of an (n, k, t) spec, and "none" for no code."""
    return "none" if spec is None else "%d:%d:%d" % spec


def _integer(name: str, value) -> int:
    """`value` as an int; a float, even a whole one, raises ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name}: {value!r} is not an integer") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one sweep depends on; hashable as canonical text.

    `dataset` is either the literal "synth" or a point-cloud CSV path.
    `codes` lists (n, k, t) block codes swept in addition to the always
    present uncoded cell. `out` is artifact plumbing and does not enter the
    config hash.
    """

    pipelines: tuple = ("pd", "raw")
    dataset: str = "synth"
    latent_file: str | None = None
    per_class: int = 200
    n_points: int = 48
    noise: float = 0.2
    dataset_seed: int = 7
    gamma_max: float = DEFAULT_GAMMA_MAX
    box_pd: float = 16.0
    box_raw: float = RAW_BOX_SIDE
    box_latent: float = 1.0
    m_values: tuple = tuple(range(10, 28))
    partition: int = DEFAULT_PARTITION
    T: int = 10
    cv_seed: int = 1
    train_seed: int = 3
    channel_seed: int = 11
    alphas: tuple = (0.0,)
    codes: tuple = ()
    epochs: int = 300
    hidden: tuple = (128, 64)
    drop_essential: bool = False
    collapse_duplicates: bool = False
    out: str = "results.csv"

    def __post_init__(self):
        # each integer is checked before any cast, so 10.7 is not read as 10
        for f in fields(self):
            if f.type is int:
                object.__setattr__(self, f.name,
                                   _integer(f.name, getattr(self, f.name)))
        for name in ("m_values", "hidden"):
            object.__setattr__(self, name, tuple(
                _integer(name, v) for v in getattr(self, name)))
        if not self.pipelines:
            raise ValueError("at least one pipeline kind is required")
        for p in self.pipelines:
            if p not in SOURCE_KINDS:
                raise ValueError(f"unknown pipeline kind {p!r}")
        if len(set(self.pipelines)) != len(self.pipelines):
            raise ValueError("duplicate pipeline kinds")
        if self.dataset != "synth" and not os.path.exists(self.dataset):
            raise ValueError(f"dataset file {self.dataset!r} does not exist")
        if "latent" in self.pipelines:
            if not self.latent_file:
                raise ValueError("latent pipeline requires latent_file")
        if self.latent_file and not os.path.exists(self.latent_file):
            raise ValueError(f"latent file {self.latent_file!r} does not exist")
        if self.dataset == "synth" and (3 * self.per_class) % 2 != 0:
            raise ValueError("per_class must be even for half/half folds")
        ms = tuple(sorted(set(self.m_values)))
        if not ms:
            raise ValueError("m_values must not be empty")
        for m in ms:
            if not 2 <= m <= 28:
                raise ValueError(f"m={m} outside the supported [2, 28] range")
        object.__setattr__(self, "m_values", ms)
        alphas = tuple(sorted(set(float(a) for a in self.alphas)))
        if not alphas:
            raise ValueError("alphas must not be empty")
        for a in alphas:
            if not 0.0 <= a < 0.5:
                raise ValueError(f"alpha={a} outside [0, 0.5)")
        object.__setattr__(self, "alphas", alphas)
        codes = tuple(tuple(_integer("codes", x) for x in code)
                      for code in self.codes)
        for n, k, t in codes:
            g = (n + 1).bit_length() - 1
            if (1 << g) - 1 != n:
                raise ValueError(f"code length {n} is not 2^g - 1")
            if not 0 < k < n:
                raise ValueError(f"message length {k} outside (0, {n})")
            if t < 1:
                raise ValueError("error capability must be at least 1")
        if len(set(codes)) != len(codes):
            raise ValueError("duplicate codes")
        object.__setattr__(self, "codes", codes)
        for name, low in (("per_class", 1), ("n_points", MIN_SYNTH_POINTS),
                          ("partition", 1), ("T", 1), ("epochs", 1),
                          ("dataset_seed", 0), ("cv_seed", 0),
                          ("train_seed", 0), ("channel_seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}")
        # written so that NaN fails too
        for name in ("gamma_max", "box_pd", "box_raw", "box_latent"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.noise < math.inf:
            raise ValueError("noise must be finite and nonnegative")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError("hidden layer sizes must be positive")

    def box_for(self, pipeline: str) -> float:
        return getattr(self, f"box_{pipeline}")

    def canonical_text(self, include_artifacts: bool = False) -> str:
        return "".join(
            f"{key} = {fmt(getattr(self, key))}\n"
            for key, (fmt, _) in _CONFIG_TEXT.items()
            if include_artifacts or key != "out")

    def config_hash(self) -> str:
        return hashlib.sha256(
            self.canonical_text().encode("utf-8")).hexdigest()[:16]


def _parse_int_list(v: str) -> tuple:
    out = []
    for tok in v.split(","):
        tok = tok.strip()
        if ".." in tok:
            lo, hi = (int(s) for s in tok.split("..", 1))
            if hi - lo >= MAX_RANGE:
                raise ValueError(f"range {tok} has over {MAX_RANGE} values")
            out.extend(range(lo, hi + 1))
        else:
            out.append(int(tok))
    return tuple(out)


def _parse_codes(v: str) -> tuple:
    if v.strip().lower() == "none":
        return ()
    out = []
    for tok in v.split(","):
        n, k, t = tok.strip().split(":")
        out.append((int(n), int(k), int(t)))
    return tuple(out)


def _parse_bool(v: str) -> bool:
    s = v.strip().lower()
    if s in ("true", "1", "yes"):
        return True
    if s in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {v!r}")


def _join(items) -> str:
    return ",".join(str(x) for x in items)


# (format, parse) per config field type, and for the fields whose text
# needs more than their type says
_TEXT_BY_TYPE = {
    int: (lambda v: "%d" % v, int),
    float: (number_text, float),
    str: (str, str.strip),
    bool: (lambda b: "true" if b else "false", _parse_bool),
}
_TEXT_BY_KEY = {
    "pipelines": (_join, lambda v: tuple(s.strip() for s in v.split(","))),
    "latent_file": (lambda v: v or "none",
                    lambda v: None if v.strip().lower() == "none"
                    else v.strip()),
    "m_values": (_join, _parse_int_list),
    "alphas": (lambda xs: ",".join(number_text(a) for a in xs),
               lambda v: tuple(float(s) for s in v.split(","))),
    "codes": (lambda cs: ",".join(map(code_label, cs)) or code_label(None),
              _parse_codes),
    "hidden": (_join, _parse_int_list),
}
# key -> (format, parse) in field order; the formatted lines make up the
# canonical text, so the config hash depends on every entry
_CONFIG_TEXT = {f.name: _TEXT_BY_KEY.get(f.name) or _TEXT_BY_TYPE[f.type]
                for f in fields(ExperimentConfig)}
_KEY_PARSERS = {key: parse for key, (_, parse) in _CONFIG_TEXT.items()}


def parse_config(text: str) -> ExperimentConfig:
    """Key = value lines; '#' starts a comment; unknown and repeated keys
    are errors."""
    data, first_line = {}, {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw!r}",
                             line_number=ln)
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KEY_PARSERS:
            raise ParseError(f"unknown config key {key!r}", line_number=ln)
        if key in first_line:
            raise ParseError(f"config key {key!r} repeats line "
                             f"{first_line[key]}", line_number=ln)
        first_line[key] = ln
        try:
            data[key] = _KEY_PARSERS[key](value)
        except ValueError as exc:
            raise ParseError(f"bad value for {key!r}: {exc}",
                             line_number=ln) from exc
    try:
        return ExperimentConfig(**data)
    except ValueError as exc:
        raise ParseError(str(exc), line_number=0) from exc


def load_config(path) -> ExperimentConfig:
    """Read a config file; its four seed keys are the sweep's only seeds."""
    with open(path) as f:
        return parse_config(f.read())


def write_config(path, config: ExperimentConfig) -> None:
    write_file(path, config.canonical_text(include_artifacts=True).encode())
