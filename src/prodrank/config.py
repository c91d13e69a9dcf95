"""Flat run configuration: ``key = value`` lines plus command-line
overrides.  Every knob has a typed default, below or in ``TrainConfig``;
unknown keys are rejected so typos fail loudly instead of silently
running defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .training import TrainConfig

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


@dataclass
class RunConfig(TrainConfig):
    # training settings and ``seed``: inherited, so ``train`` takes a RunConfig as it is
    # simulation
    users: int = 12000
    catalog_size: int = 2000
    stuffers_per_noun: int = 2
    sessions_min: int = 1
    sessions_max: int = 4
    months: int = 8
    page_size: int = 5
    alpha1: float = 0.7
    alpha2: float = 0.65
    max_queries: int = 4
    timeout: int = 1800
    # extraction / split
    rho: int = 3
    train_cut: float = 0.75   # fraction of the simulated span
    val_cut: float = 0.875
    # model
    architecture: str = "kernel_pooling"
    dim: int = 50
    n_q: int = 10
    n_d: int = 64
    linear: bool = False
    # pre-training
    window: int = 5
    negatives: int = 5
    sg_epochs: int = 5
    sg_lr: float = 0.025
    # benchmark
    truncations: str = "64"   # comma list; the study grid is 32,64,128

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.train_cut < self.val_cut <= 1.0:
            raise ValueError("need 0 < train_cut < val_cut <= 1")
        if self.sessions_min < 1 or self.sessions_max < self.sessions_min:
            raise ValueError("bad sessions_min/sessions_max range")
        for key in ("dim", "n_q", "n_d", "users", "months", "page_size", "max_queries"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
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
