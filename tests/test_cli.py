"""Command-line interface: exit codes, flag plumbing, file outputs.

tests/data/micro_log.jsonl is built by hand.  User u0's first session is
a clickless "red" page over s1..s3 refined to "red chair" with a click on
s4, so rho=3 yields exactly the three triples (red chair, s4, s1|s2|s3)
and rho=2 drops the rank-3 negative.  u1's query change is not a
refinement and the lone "oak table" session has no clickless prefix, so
neither adds anything.
"""

import contextlib
import filecmp
import io
import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from prodrank.autodiff import load_checkpoint, save_checkpoint
from prodrank.catalog import Sku, write_catalog
from prodrank.cli import main
from prodrank.config import RunConfig
from prodrank.embeddings import load_vectors
from prodrank.extraction import read_triples

DATA = Path(__file__).parent / "data"
MICRO_LOG = DATA / "micro_log.jsonl"


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_extract_micro_log(tmp_path, capsys):
    out = tmp_path / "triples.tsv"
    assert main(["extract", "--in", str(MICRO_LOG), "--out", str(out)]) == 0
    triples = read_triples(out)
    assert {(t.query, t.rel_sku, t.irrel_sku, t.timestamp) for t in triples} == {
        ("red chair", "s4", "s1", 200),
        ("red chair", "s4", "s2", 200),
        ("red chair", "s4", "s3", 200),
    }
    assert "3 triples" in capsys.readouterr().out


def test_extract_rho_flag(tmp_path):
    out = tmp_path / "triples.tsv"
    assert main(["extract", "--in", str(MICRO_LOG), "--rho", "2", "--out", str(out)]) == 0
    triples = read_triples(out)
    assert {t.irrel_sku for t in triples} == {"s1", "s2"}


def test_set_overrides_and_flag_wins(tmp_path):
    out = tmp_path / "triples.tsv"
    # --set is applied first, the dedicated flag last
    assert main(["extract", "--in", str(MICRO_LOG), "--set", "rho=1",
                 "--rho", "2", "--out", str(out)]) == 0
    assert len(read_triples(out)) == 2


def test_config_file_plumbing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho = 1\n")
    out = tmp_path / "triples.tsv"
    assert main(["extract", "--in", str(MICRO_LOG), "--config", str(cfg),
                 "--out", str(out)]) == 0
    assert len(read_triples(out)) == 1


def test_extract_split_dir(tmp_path, capsys):
    out = tmp_path / "triples.tsv"
    split = tmp_path / "split"
    assert main(["extract", "--in", str(MICRO_LOG), "--out", str(out),
                 "--split-dir", str(split)]) == 0
    assert (split / "triples_train.tsv").exists()
    assert (split / "triples_val.tsv").exists()
    assert (split / "triples_test.tsv").exists()
    # the micro log's timestamps all sit at the start of the span
    assert len(read_triples(split / "triples_train.tsv")) == 3
    assert "split sizes:" in capsys.readouterr().out


def test_extract_empty_yield(tmp_path, capsys):
    lone = tmp_path / "lone.jsonl"
    lone.write_text(
        '{"clicks": [1], "impressions": [["s1", 1]], "query": "oak", "ts": 5, "user": "u"}\n'
    )
    out = tmp_path / "triples.tsv"
    assert main(["extract", "--in", str(lone), "--out", str(out)]) == 0
    assert read_triples(out) == []
    assert "no triples" in capsys.readouterr().out


def test_missing_input_exits_one(tmp_path, capsys):
    assert main(["extract", "--in", str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "t.tsv")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_set_value_exits_one(tmp_path, capsys):
    assert main(["extract", "--in", str(MICRO_LOG), "--set", "rho=banana",
                 "--out", str(tmp_path / "t.tsv")]) == 1
    assert "error:" in capsys.readouterr().err


SYMBOL = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}
# every declared bound of every setting, with a value just outside it
OUTSIDE = [(f.name, op, bound + {"ge": -1, "gt": 0, "le": 1, "lt": 0}[op])
           for f in fields(RunConfig) for op, bound in f.metadata.items()]


@pytest.mark.parametrize("argv, key, op", [
    (["pretrain", "--dim", "0"], "dim", "ge"),
    (["pretrain", "--set", "dim=0"], "dim", "ge"),
    (["simulate", "--users", "-5"], "users", "ge"),
    (["simulate", "--set", "months=0"], "months", "ge"),
    (["simulate", "--set", "page_size=0"], "page_size", "ge"),
    (["simulate", "--set", "max_queries=0"], "max_queries", "ge"),
    *[(["simulate", "--set", f"{key}={value}"], key, op) for key, op, value in OUTSIDE],
], ids=["dim-flag", "dim-set", "users-flag", "months-set", "page-size-set", "max-queries-set",
        *[f"{key}-{op}" for key, op, _ in OUTSIDE]])
def test_size_below_one_exits_one(tmp_path, capsys, tiny_catalog, argv, key, op):
    bound = next(f.metadata[op] for f in fields(RunConfig) if f.name == key)
    (tmp_path / "in").mkdir()
    write_catalog(tiny_catalog, tmp_path / "in" / "catalog.jsonl")
    inputs = ["--in", str(tmp_path / "in" / "catalog.jsonl")] if argv[0] == "pretrain" else []
    assert main([*argv, *inputs, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be {SYMBOL[op]} {bound}") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["in"]  # no stage wrote a file


@pytest.mark.parametrize("command, record", [
    ("pretrain", '{"sku_id": "A", "title": 5, "extra": "x"}'),
    ("extract", '{"clicks": [], "impressions": [["s1", 1]], "query": 5, "ts": 1, "user": "u"}'),
    ("pretrain", "[1, 2]"),
    ("pretrain", "null"),
    ("extract", '{"clicks": [99], "impressions": [["s1", 1]], "query": "q", "ts": 1, "user": "u"}'),
    ("extract", '{"clicks": [], "impressions": [["s1", 1]], "query": "q", "ts": 100.9, "user": "u"}'),
    ("extract", '{"clicks": [], "impressions": [["s1", 1]], "query": "q", "ts": "200", "user": "u"}'),
    ("extract", '{"clicks": [], "impressions": [["s1", "1"]], "query": "q", "ts": 1, "user": "u"}'),
    ("extract", '{"clicks": [true], "impressions": [["s1", 1]], "query": "q", "ts": 1, "user": "u"}'),
], ids=["catalog", "log", "catalog-list", "catalog-null", "log-unshown-click", "log-float-ts",
        "log-string-ts", "log-string-rank", "log-bool-click"])
def test_badly_typed_record_exits_one(tmp_path, capsys, command, record):
    path = tmp_path / "input.jsonl"
    path.write_text(record + "\n")
    assert main([command, "--in", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:1: bad") and err.count("\n") == 1


SMALL = ["--set", "users=150", "--set", "catalog_size=300", "--set", "dim=16",
         "--set", "sg_epochs=1", "--set", "max_epochs=1", "--set", "batch_size=128"]


def _simulate(out_dir, seed="1"):
    return main(["simulate", *SMALL, "--seed", seed, "--out", str(out_dir / "log.jsonl")])


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert _simulate(a) == 0
    assert _simulate(b) == 0
    for name in ("log.jsonl", "catalog.jsonl", "truth.tsv"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_simulate_seed_changes_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert _simulate(a, seed="1") == 0
    assert _simulate(b, seed="2") == 0
    assert not filecmp.cmp(a / "log.jsonl", b / "log.jsonl", shallow=False)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """simulate -> extract -> pretrain shared by the later-stage tests."""
    d = tmp_path_factory.mktemp("cli_pipeline")
    assert _simulate(d) == 0
    assert main(["extract", *SMALL, "--in", str(d / "log.jsonl"),
                 "--out", str(d / "triples.tsv")]) == 0
    assert main(["pretrain", *SMALL, "--in", str(d / "catalog.jsonl"),
                 "--out", str(d / "vectors.txt")]) == 0
    return d


def test_pretrain_writes_vectors(pipeline_dir):
    header = (pipeline_dir / "vectors.txt").read_text().splitlines()[0]
    token, *values = header.split(" ")
    assert token and len(values) == 16


def test_train_eval_inspect_round_trip(pipeline_dir, capsys):
    d = pipeline_dir
    rc = main(["train", *SMALL, "--train", str(d / "triples.tsv"),
               "--val", str(d / "triples.tsv"), "--catalog", str(d / "catalog.jsonl"),
               "--vectors", str(d / "vectors.txt"), "--nd", "8",
               "--out", str(d / "model.ckpt"), "--tuned-vectors", str(d / "tuned.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "epoch  0" in out and "best epoch" in out
    assert (d / "model.ckpt").exists() and (d / "tuned.txt").exists()

    rc = main(["eval", *SMALL, "--checkpoint", str(d / "model.ckpt"),
               "--triples", str(d / "triples.tsv"), "--catalog", str(d / "catalog.jsonl"),
               "--vectors", str(d / "vectors.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "tfidf baseline" in out and "rel  100.00%" in out
    assert "kernel_pooling" in out

    rc = main(["inspect-embeddings", "--before", str(d / "vectors.txt"),
               "--after", str(d / "tuned.txt"), "--top-k", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "From μ   To μ    Word Pairs" in out
    assert "decoupled" in out

    for top_k in ("0", "-3"):
        rc = main(["inspect-embeddings", "--before", str(d / "vectors.txt"),
                   "--after", str(d / "tuned.txt"), "--top-k", top_k])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: top_k must be >= 1") and err.count("\n") == 1


def test_eval_missing_checkpoint_exits_one(pipeline_dir, capsys):
    d = pipeline_dir
    rc = main(["eval", "--checkpoint", str(d / "absent.ckpt"),
               "--triples", str(d / "triples.tsv"), "--catalog", str(d / "catalog.jsonl"),
               "--vectors", str(d / "vectors.txt")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def _train_checkpoint(d, out, *extra):
    return main(["train", *SMALL, "--set", "max_epochs=0", *extra,
                 "--train", str(d / "triples.tsv"), "--val", str(d / "triples.tsv"),
                 "--catalog", str(d / "catalog.jsonl"), "--vectors", str(d / "vectors.txt"),
                 "--out", str(out)])


@pytest.mark.parametrize("arch", ["kernel_pooling", "siamese", "dssm_like", "hybrid_local"])
def test_train_checkpoint_records_nd(pipeline_dir, tmp_path, arch):
    ckpt = tmp_path / f"{arch}.ckpt"
    assert _train_checkpoint(pipeline_dir, ckpt, "--arch", arch, "--nd", "32") == 0
    descriptor, _ = load_checkpoint(ckpt)
    assert descriptor.startswith(f"{arch}:")
    assert "Nd=32" in descriptor.split(":", 1)[1].split(",")


def test_eval_truncated_checkpoint_exits_one(pipeline_dir, tmp_path, capsys):
    d = pipeline_dir
    ckpt = tmp_path / "model.ckpt"
    assert _train_checkpoint(d, ckpt) == 0
    ckpt.write_bytes(ckpt.read_bytes()[:30])
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(ckpt),
               "--triples", str(d / "triples.tsv"), "--catalog", str(d / "catalog.jsonl"),
               "--vectors", str(d / "vectors.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("frozen", ["yes", "no"])
def test_config_file_frozen_holds_without_flag(pipeline_dir, tmp_path, frozen):
    d = pipeline_dir
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"frozen = {frozen}\n")
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", *SMALL, "--config", str(cfg),
                 "--train", str(d / "triples.tsv"), "--val", str(d / "triples.tsv"),
                 "--catalog", str(d / "catalog.jsonl"), "--vectors", str(d / "vectors.txt"),
                 "--out", str(ckpt)]) == 0
    _, tensors = load_checkpoint(ckpt)
    unchanged = np.array_equal(tensors["embedding"], load_vectors(d / "vectors.txt").vectors)
    assert unchanged is (frozen == "yes")


def test_eval_unknown_sku_exits_one(pipeline_dir, tmp_path, capsys):
    d = pipeline_dir
    ckpt = tmp_path / "model.ckpt"
    assert _train_checkpoint(d, ckpt) == 0
    rel = (d / "triples.tsv").read_text().splitlines()[0].split("\t")[1]
    triples = tmp_path / "bad.tsv"
    triples.write_text(f"some query\t{rel}\tnope\t0\n")
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", str(ckpt), "--triples", str(triples),
               "--catalog", str(d / "catalog.jsonl"), "--vectors", str(d / "vectors.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "doc_tokens missing 1 skus" in err


# ---------------------------------------------------------------------------
# damage sweep: every artifact a stage reads, cut short or mangled
# ---------------------------------------------------------------------------

COMPAT = DATA / "compat"
# the micro log's SKUs, titled in the compat vector file's words
MICRO_CATALOG = [Sku(f"s{i}", title, "", title.split()[-1]) for i, title in enumerate(
    ["red oak chair", "blue pine table", "green sofa", "red chair", "oak table", "pine sofa"],
    start=1)]
READERS = {  # artifact -> the stages that read it
    "catalog": ("pretrain", "train", "eval"),
    "log": ("extract",),
    "triples": ("train", "eval"),
    "vectors": ("train", "eval", "inspect-embeddings"),
    "checkpoint": ("eval",),
}


def _stage_argv(stage: str, p: dict) -> list[str]:
    return {
        "pretrain": ["pretrain", "--set", "dim=4", "--set", "sg_epochs=1",
                     "--in", p["catalog"], "--out", p["out"]],
        "extract": ["extract", "--in", p["log"], "--out", p["out"]],
        "train": ["train", "--set", "max_epochs=1", "--nd", "6", "--train", p["triples"],
                  "--val", p["triples"], "--catalog", p["catalog"],
                  "--vectors", p["vectors"], "--out", p["out"]],
        "eval": ["eval", "--checkpoint", p["checkpoint"], "--triples", p["triples"],
                 "--catalog", p["catalog"], "--vectors", p["vectors"]],
        "inspect-embeddings": ["inspect-embeddings", "--before", p["vectors"],
                               "--after", p["vectors"]],
    }[stage]


def _run_quietly(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def intact(tmp_path_factory):
    """One intact copy of each artifact, and proof that every stage
    reading them exits 0."""
    d = tmp_path_factory.mktemp("intact")
    write_catalog(MICRO_CATALOG, d / "catalog.jsonl")
    paths = {"catalog": d / "catalog.jsonl", "log": MICRO_LOG, "triples": d / "triples.tsv",
             "vectors": COMPAT / "vectors.txt", "checkpoint": COMPAT / "kernel_pooling.ckpt"}
    assert _run_quietly(["extract", "--in", str(MICRO_LOG), "--out", str(paths["triples"])])[0] == 0
    blobs = {name: path.read_bytes() for name, path in paths.items()}
    for stage in {s for stages in READERS.values() for s in stages}:
        argv = _stage_argv(stage, {**{k: str(v) for k, v in paths.items()}, "out": str(d / "out")})
        assert _run_quietly(argv) == (0, ""), stage
    return blobs


NOT_OBJECTS = ["[1, 2]", "null", "5", '"text"', "garbage", "a\tb"]
OTHER_TYPES = [5, 1.5, "x", "", True, None, [1], {"a": 1}]


@st.composite
def damaged(draw, blob: bytes, artifact: str) -> bytes:
    kind = draw(st.sampled_from(["cut", "retype", "not-object"]))
    if kind == "cut":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if artifact == "checkpoint":  # binary: overwrite one byte of a field, or append a line
        if kind == "not-object":
            return blob + draw(st.sampled_from(NOT_OBJECTS)).encode() + b"\n"
        i = draw(st.integers(0, len(blob) - 1))
        return blob[:i] + bytes([draw(st.integers(0, 255))]) + blob[i + 1:]
    lines = blob.decode("utf-8").splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "not-object":
        lines.insert(i, draw(st.sampled_from(NOT_OBJECTS)))
    elif artifact in ("catalog", "log"):
        record = json.loads(lines[i])
        key = draw(st.sampled_from(sorted(record)))
        others = [v for v in OTHER_TYPES if type(v) is not type(record[key])]
        record[key] = draw(st.sampled_from(others))
        lines[i] = json.dumps(record)
    else:
        sep = "\t" if artifact == "triples" else " "
        parts = lines[i].split(sep)
        j = draw(st.integers(0, len(parts) - 1))
        parts[j] = draw(st.sampled_from(["x", "1.5", "-1", "nan", "inf", "[]", ""]))
        lines[i] = sep.join(parts)
    return ("\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.data())
def test_damaged_artifact_exits_zero_or_one(intact, case):
    artifact = case.draw(st.sampled_from(sorted(READERS)), label="artifact")
    stage = case.draw(st.sampled_from(READERS[artifact]), label="stage")
    blob = case.draw(damaged(intact[artifact], artifact), label="damaged")
    with tempfile.TemporaryDirectory() as d:
        paths = {name: os.path.join(d, name) for name in (*READERS, "out")}
        for name, data in intact.items():
            with open(paths[name], "wb") as f:
                f.write(blob if name == artifact else data)
        code, err = _run_quietly(_stage_argv(stage, paths))
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_any_flipped_checkpoint_byte_exits_one(intact, tmp_path):
    # the compat checkpoint predates the checksum; saved again it is version 2
    paths = {name: tmp_path / name for name in (*READERS, "out")}
    for name, data in intact.items():
        paths[name].write_bytes(data)
    save_checkpoint(paths["checkpoint"], *load_checkpoint(COMPAT / "kernel_pooling.ckpt"))
    blob = paths["checkpoint"].read_bytes()
    assert blob[4:8] == (2).to_bytes(4, "little")
    argv = _stage_argv("eval", {k: str(v) for k, v in paths.items()})
    assert _run_quietly(argv) == (0, "")
    for i in range(len(blob)):
        paths["checkpoint"].write_bytes(blob[:i] + bytes([blob[i] ^ 0xFF]) + blob[i + 1:])
        code, err = _run_quietly(argv)
        assert code == 1 and err.startswith("error:") and err.count("\n") == 1, (i, err)
