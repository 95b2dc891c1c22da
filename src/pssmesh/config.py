"""Run configuration: one strict JSON document drives every stage.

A config file may set any subset of the fields below; unknown keys are
rejected so typos fail loudly instead of silently using a default. Each
value must have the type of its field's default: a number for a float
field (not a bool), an integer for an int field, a list for a tuple and an
object for the class table; a wrong type is a ConfigError naming the key. All
randomness in a run flows from the single ``seed`` field. Every stage
function takes the ``PipelineConfig`` itself (``None`` means the defaults),
so each setting's default and range check is written once, here.
"""

import json
import os
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from numbers import Integral, Real
from pathlib import Path

DEFAULT_CLASSES = {0: "terrain", 1: "building",
                   2: "high_vegetation", 3: "vehicle"}


class ConfigError(ValueError):
    """Bad configuration content; maps to the usage-error exit code."""


def read_text(path) -> str:
    """The UTF-8 text of the file at ``path``.

    A directory, and bytes that are not UTF-8, raise ConfigError with the
    path in front of the message; for bad bytes it names their line and
    byte offset.
    """
    try:
        data = Path(path).read_bytes()
    except IsADirectoryError:
        raise ConfigError(f"{path}: is a directory, not a file") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}: line {line}: not UTF-8 text (byte "
                          f"offset {exc.start})") from None


def load_versioned_json(path, version: int, kind: str) -> dict:
    """The JSON object in ``path``, whose ``version`` must be ``version``.

    ``read_text``'s errors, invalid JSON, a value that is not an object and
    another version raise ConfigError with the path in front of the
    message; ``kind`` names the file in the version message.
    """
    text = read_text(path)
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: not a JSON object")
    if doc.get("version") != version:
        raise ConfigError(f"{path}: unsupported {kind} file version "
                          f"{doc.get('version')}")
    return doc


def save_json(data, path) -> None:
    """Write ``data`` as JSON, indented by one space, and a final newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


@dataclass
class PipelineConfig:
    input_path: str | None = None
    output_dir: str | None = None
    planarity_model: str | None = None
    semantic_model: str | None = None
    weld_epsilon: float = 1e-6
    eigen_radii: tuple = (0.5, 1.0, 2.0)
    elevation_radii: tuple = (10.0, 20.0, 40.0)
    trees: int = 100
    min_leaf: int = 5
    max_depth: int = 40
    lambda_d: float = 1.2
    lambda_m: float = 0.1
    lambda_g: float = 0.9
    parallel_angle_deg: float = 5.0
    ground_radius: float = 30.0
    knn_k: int = 16
    knn_cutoff_factor: float = 16.0
    sampling_density: float = 10.0
    boundary_rings: int = 2
    nonplanar_classes: tuple = (2,)
    seed: int = 0
    threads: int = 0                    # 0 = auto
    classes: dict = field(default_factory=lambda: dict(DEFAULT_CLASSES))

    def __post_init__(self):
        for name, default in DEFAULTS.items():
            setattr(self, name, _typed(name, default, getattr(self, name)))
        for name in ("weld_epsilon", "lambda_d", "lambda_m", "lambda_g",
                     "boundary_rings", "threads"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("trees", "min_leaf", "max_depth", "knn_k"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("parallel_angle_deg", "ground_radius",
                     "knn_cutoff_factor", "sampling_density"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if not 0 <= self.seed < 2 ** 63:       # model files hold an int64
            raise ConfigError("seed must lie in [0, 2**63)")
        if not self.eigen_radii:
            raise ConfigError("eigen_radii must not be empty")
        if any(r <= 0 for r in self.eigen_radii + self.elevation_radii):
            raise ConfigError("feature radii must be > 0")
        for name in ("eigen_radii", "elevation_radii"):
            tags = [radius_tag(r) for r in getattr(self, name)]
            twice = [t for i, t in enumerate(tags) if t in tags[:i]]
            if twice:
                raise ConfigError(f"{name} gives two channels the suffix "
                                  f"'_{twice[0]}'")
        if not self.classes:
            raise ConfigError("class table must not be empty")

    def as_dict(self) -> dict:
        """JSON-safe snapshot; class ids become string keys."""
        d = asdict(self)
        d["eigen_radii"] = list(self.eigen_radii)
        d["elevation_radii"] = list(self.elevation_radii)
        d["nonplanar_classes"] = list(self.nonplanar_classes)
        d["classes"] = {str(k): v for k, v in sorted(self.classes.items())}
        return d


def radius_tag(radius: float) -> str:
    """The suffix that names a feature channel of one radius: ``r0.5``."""
    return f"r{radius:g}"


# field name -> default value, in field order
DEFAULTS = {f.name: f.default_factory() if f.default is MISSING else f.default
            for f in fields(PipelineConfig)}


# scalar field type -> (accepted value types, what the error asks for)
_SCALARS = {float: (Real, "a number"), int: (Integral, "an integer"),
            str: ((str, os.PathLike), "a string")}


def _scalar(name, kind, value):
    """``value`` as ``kind`` (float, int or str), else a ConfigError."""
    accepted, want = _SCALARS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{name} must be {want}, got {value!r}")
    return os.fspath(value) if kind is str else kind(value)


def _class_id(name, key):
    """A class id: an integer or, as JSON keys are, its decimal string."""
    if isinstance(key, str):
        try:
            return int(key)
        except ValueError:
            raise ConfigError(f"{name}: class id {key!r} is not an "
                              "integer") from None
    return _scalar(name, int, key)


def _typed(name, default, value):
    """``value`` in the type of the field's ``default``; see the docstring.

    A ``None`` default is an optional path, a tuple takes a list of its
    element type, and the class table maps class ids to name strings.
    """
    if default is None:
        return None if value is None else _scalar(name, str, value)
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(_scalar(f"{name} entries", type(default[0]), v)
                     for v in value)
    if isinstance(default, dict):
        if not (isinstance(value, dict)
                and all(isinstance(v, str) for v in value.values())):
            raise ConfigError(f"{name} must map class ids to names, "
                              f"got {value!r}")
        return {_class_id(name, k): v for k, v in value.items()}
    return _scalar(name, type(default), value)


def config_from_dict(data: dict) -> PipelineConfig:
    return override_config(PipelineConfig(), **data)


def load_config(path) -> PipelineConfig:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    text = read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    try:
        return config_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"config {path}: {exc}") from None


def override_config(config: PipelineConfig, **changes) -> PipelineConfig:
    """New config with the given fields replaced; unknown names rejected."""
    unknown = sorted(set(changes) - set(DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    return replace(config, **changes)
