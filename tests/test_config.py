"""Run configuration parsing and overrides."""

from dataclasses import fields, replace

import pytest

from prodrank.config import RunConfig


def test_defaults():
    cfg = RunConfig()
    assert cfg.seed == 0
    assert cfg.catalog_size == 2000
    assert cfg.architecture == "kernel_pooling"
    assert cfg.dim == 50
    assert cfg.n_q == 10 and cfg.n_d == 64
    assert cfg.lr == 1e-4 and cfg.batch_size == 512 and cfg.max_epochs == 20
    assert cfg.frozen is False
    assert cfg.truncation_grid() == [64]


def test_set_coerces_from_default_types():
    cfg = RunConfig()
    cfg.set("users", "450")
    assert cfg.users == 450 and isinstance(cfg.users, int)
    cfg.set("lr", "3e-3")
    assert cfg.lr == 3e-3
    cfg.set("architecture", " dssm_like ")
    assert cfg.architecture == "dssm_like"
    for raw, want in [("1", True), ("true", True), ("Yes", True), ("on", True),
                      ("0", False), ("False", False), ("no", False), ("off", False)]:
        cfg.set("frozen", raw)
        assert cfg.frozen is want
    with pytest.raises(ValueError, match="not a boolean"):
        cfg.set("linear", "maybe")


def test_unknown_key_lists_known_ones():
    cfg = RunConfig()
    with pytest.raises(ValueError, match="unknown config key 'leraning_rate'") as e:
        cfg.set("leraning_rate", "0.1")
    assert "lr" in str(e.value) and "users" in str(e.value)


def test_validation():
    with pytest.raises(ValueError, match="train_cut"):
        RunConfig(train_cut=0.9, val_cut=0.8)
    with pytest.raises(ValueError, match="sessions_min"):
        RunConfig(sessions_min=3, sessions_max=2)
    with pytest.raises(ValueError, match="bad truncations"):
        RunConfig(truncations="32,abc")
    with pytest.raises(ValueError, match="bad truncations"):
        RunConfig(truncations="")
    with pytest.raises(ValueError, match="bad truncations"):
        RunConfig(truncations="0,64")
    for key in ("dim", "n_q", "n_d", "users"):
        with pytest.raises(ValueError, match=f"{key} must be >= 1"):
            RunConfig(**{key: 0})


def test_every_numeric_setting_declares_a_bound():
    # a new int or float setting cannot skip the range check
    numeric = [f for f in fields(RunConfig) if f.type in ("int", "float")]
    assert len(numeric) > 20
    assert [f.name for f in numeric if not f.metadata] == []
    assert {op for f in numeric for op in f.metadata} <= {"ge", "gt", "le", "lt"}


def test_bounds_checked_on_every_path():
    for build in (lambda: RunConfig(timeout=0),
                  lambda: replace(RunConfig(), timeout=0),
                  lambda: RunConfig.load(None, ("timeout=0",))):
        with pytest.raises(ValueError, match="^timeout must be >= 1, got 0$"):
            build()


def test_truncation_grid_parses_comma_list():
    cfg = RunConfig(truncations="32,64,128")
    assert cfg.truncation_grid() == [32, 64, 128]
    cfg.truncations = " 16 , 8 "
    assert cfg.truncation_grid() == [16, 8]


def test_load_file_with_comments_and_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# benchmark setup\n"
        "users = 300\n"
        "dim = 16   # small embedding\n"
        "\n"
        "frozen = yes\n"
    )
    cfg = RunConfig.load(p)
    assert cfg.users == 300 and cfg.dim == 16 and cfg.frozen is True
    cfg = RunConfig.load(p, overrides=("dim=32", "seed=9"))
    assert cfg.dim == 32 and cfg.seed == 9 and cfg.users == 300


def test_load_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("users = 10\nnope\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2: expected key = value"):
        RunConfig.load(p)
    p.write_text("users = ten\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:1:"):
        RunConfig.load(p)
    p.write_text("typo_key = 1\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:1: unknown config key"):
        RunConfig.load(p)


def test_bad_override_strings():
    with pytest.raises(ValueError, match="expected key=value"):
        RunConfig.load(None, overrides=("dim32",))
    with pytest.raises(ValueError, match="unknown config key"):
        RunConfig.load(None, overrides=("dim32=1",))


def test_load_revalidates_after_overrides():
    with pytest.raises(ValueError, match="train_cut"):
        RunConfig.load(None, overrides=("train_cut=0.95", "val_cut=0.9"))


def test_training_settings_validated_at_load():
    with pytest.raises(ValueError, match="lr must be > 0, got 0.0"):
        RunConfig.load(None, ("lr=0",))


def test_dump_round_trips(tmp_path):
    cfg = RunConfig(users=77, dim=12, frozen=True, truncations="32,64")
    p = tmp_path / "dump.cfg"
    p.write_text(cfg.dump() + "\n")
    back = RunConfig.load(p)
    assert back == cfg
