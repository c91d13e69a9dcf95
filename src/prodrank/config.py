"""Flat run configuration: ``key = value`` lines plus command-line
overrides.  Every knob has a typed default, below or in ``TrainConfig``,
and every numeric one declares its valid range beside it, which
``TrainConfig.__post_init__`` checks; unknown keys are rejected so typos
fail loudly instead of silently running defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .clicksim import default_gamma
from .training import TrainConfig

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


@dataclass
class RunConfig(TrainConfig):
    # training settings and ``seed``: inherited, so ``train`` takes a RunConfig as it is
    # simulation
    users: int = field(default=12000, metadata={"ge": 1})
    catalog_size: int = field(default=2000, metadata={"ge": 1})
    stuffers_per_noun: int = field(default=2, metadata={"ge": 0})
    sessions_min: int = field(default=1, metadata={"ge": 1})
    sessions_max: int = field(default=4, metadata={"ge": 1})
    months: int = field(default=8, metadata={"ge": 1})
    page_size: int = field(default=5, metadata={"ge": 1, "le": len(default_gamma())})
    alpha1: float = field(default=0.7, metadata={"ge": 0, "le": 1})
    alpha2: float = field(default=0.65, metadata={"ge": 0, "le": 1})
    max_queries: int = field(default=4, metadata={"ge": 1})
    timeout: int = field(default=1800, metadata={"ge": 1})
    # extraction / split
    rho: int = field(default=3, metadata={"ge": 1})
    train_cut: float = field(default=0.75, metadata={"gt": 0})  # fraction of the simulated span
    val_cut: float = field(default=0.875, metadata={"le": 1})
    # model
    architecture: str = "kernel_pooling"
    dim: int = field(default=50, metadata={"ge": 1})
    n_q: int = field(default=10, metadata={"ge": 1})
    n_d: int = field(default=64, metadata={"ge": 1})
    linear: bool = False
    # pre-training
    window: int = field(default=5, metadata={"ge": 1})
    negatives: int = field(default=5, metadata={"ge": 0})
    sg_epochs: int = field(default=5, metadata={"ge": 0})
    sg_lr: float = field(default=0.025, metadata={"gt": 0})
    # benchmark
    truncations: str = "64"   # comma list; the study grid is 32,64,128

    def __post_init__(self):
        super().__post_init__()
        if self.train_cut >= self.val_cut:
            raise ValueError(f"train_cut must be < val_cut, "
                             f"got {self.train_cut} >= {self.val_cut}")
        if self.sessions_max < self.sessions_min:
            raise ValueError(f"sessions_max must be >= sessions_min, "
                             f"got {self.sessions_max} < {self.sessions_min}")
        self.truncation_grid()

    def set(self, key: str, raw: str) -> None:
        """Assign from a string with type coercion driven by the default."""
        spec = {f.name: f.type for f in fields(self)}
        if key not in spec:
            known = ", ".join(sorted(spec))
            raise ValueError(f"unknown config key '{key}' (known: {known})")
        current = getattr(self, key)
        if isinstance(current, bool):
            low = raw.strip().lower()
            if low in _TRUE:
                value = True
            elif low in _FALSE:
                value = False
            else:
                raise ValueError(f"config key '{key}': not a boolean: '{raw}'")
        elif isinstance(current, int):
            value = int(raw)
        elif isinstance(current, float):
            value = float(raw)
        else:
            value = raw.strip()
        setattr(self, key, value)

    def truncation_grid(self) -> list[int]:
        try:
            grid = [int(part) for part in str(self.truncations).split(",") if part.strip()]
        except ValueError:
            raise ValueError(f"bad truncations list: '{self.truncations}'") from None
        if not grid or any(n < 1 for n in grid):
            raise ValueError(f"bad truncations list: '{self.truncations}'")
        return grid

    @classmethod
    def load(cls, path=None, overrides: tuple[str, ...] = ()) -> "RunConfig":
        """Read ``key = value`` lines (# comments, blank lines ok), then
        apply ``key=value`` override strings in order."""
        cfg = cls()
        if path is not None:
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, start=1):
                    text = line.split("#", 1)[0].strip()
                    if not text:
                        continue
                    if "=" not in text:
                        raise ValueError(f"{path}:{lineno}: expected key = value")
                    key, raw = text.split("=", 1)
                    try:
                        cfg.set(key.strip(), raw)
                    except ValueError as e:
                        raise ValueError(f"{path}:{lineno}: {e}") from None
        for item in overrides:
            if "=" not in item:
                raise ValueError(f"override '{item}': expected key=value")
            key, raw = item.split("=", 1)
            cfg.set(key.strip(), raw)
        cfg.__post_init__()
        return cfg

    def dump(self) -> str:
        return "\n".join(f"{f.name} = {getattr(self, f.name)}" for f in fields(self))
