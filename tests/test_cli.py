"""Command-line interface: exit codes, flag plumbing, file outputs.

tests/data/micro_log.jsonl is built by hand.  User u0's first session is
a clickless "red" page over s1..s3 refined to "red chair" with a click on
s4, so rho=3 yields exactly the three triples (red chair, s4, s1|s2|s3)
and rho=2 drops the rank-3 negative.  u1's query change is not a
refinement and the lone "oak table" session has no clickless prefix, so
neither adds anything.
"""

import filecmp
from pathlib import Path

import numpy as np
import pytest

from prodrank.autodiff import load_checkpoint
from prodrank.cli import main
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
