"""Command-line interface: exit codes, stdout formats, artifact round-trips."""

import dataclasses
import json
import os
import shutil

import numpy as np
import pytest
from helpers import replace_with_symlink

from dualflow import data
from dualflow.checkpoint import load_checkpoint, save_checkpoint
from dualflow.cli import main
from dualflow.config import (apply_overrides, default_run_config, parse_run_config,
                             render_run_config)
from dualflow.errors import ContractError

TINY_CONFIG = """\
[encoder]
in_size = 32
stage_channels = 4,6,8

[patch_embed]
token_dim = 24

[attention]
depth = 1
heads = 2

[flow]
n_blocks = 2
hidden_ratio = 1.0

[train]
batch_size = 2
stage1_epochs = 2
stage2_epochs = 2
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated miniature dataset, a config file, and a trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    ds = root / "ds"
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CONFIG, encoding="ascii")
    assert main(["gen-data", "--out", str(ds), "--size", "32",
                 "--n-train", "4", "--n-test-normal", "3",
                 "--n-test-anomalous", "3", "--seed", "1"]) == 0
    ckpt = root / "model.ckpt"
    assert main(["train", "--data", str(ds), "--out", str(ckpt),
                 "--config", str(cfg)]) == 0
    return root, ds, cfg, ckpt


def test_gen_data_prints_manifest_path(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["gen-data", "--out", str(out), "--size", "32",
                 "--n-train", "1", "--n-test-normal", "1",
                 "--n-test-anomalous", "1"]) == 0
    stdout = capsys.readouterr().out.strip()
    assert stdout.endswith("manifest.tsv")
    assert len(data.load(out)) == 3


def test_train_logs_are_tsv(workspace, tmp_path, capsys):
    root, ds, cfg, _ = workspace
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--data", str(ds), "--out", str(ckpt),
                 "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    rows = [r.split("\t") for r in captured.out.strip().split("\n")]
    assert [r[0] for r in rows] == ["stage1", "stage1", "stage2", "stage2"]
    assert [int(r[1]) for r in rows] == [0, 1, 0, 1]
    for r in rows:
        for cell in r[2:]:
            float(cell)  # every loss column parses as a number
    assert rows[0][0] != "" and len(rows[0]) == 4  # stage1: two loss columns
    assert len(rows[2]) == 3                       # stage2: one loss column
    assert f"wrote {ckpt}" in captured.err
    assert ckpt.exists()


def test_staged_training_matches_single_run(workspace, tmp_path, capsys):
    root, ds, cfg, ckpt_all = workspace
    ckpt = tmp_path / "staged.ckpt"
    assert main(["train", "--data", str(ds), "--out", str(ckpt),
                 "--config", str(cfg), "--stage", "transformer"]) == 0
    assert main(["train", "--data", str(ds), "--out", str(ckpt), "--stage", "flow"]) == 0
    capsys.readouterr()
    assert ckpt.read_bytes() == ckpt_all.read_bytes()


def test_stage_flow_without_checkpoint_fails(workspace, tmp_path, capsys):
    root, ds, cfg, _ = workspace
    missing = tmp_path / "nope.ckpt"
    assert main(["train", "--data", str(ds), "--out", str(missing), "--stage", "flow"]) == 1
    assert "error:" in capsys.readouterr().err


def test_stage_flow_refuses_a_config_file(workspace, tmp_path, capsys):
    """The resumed checkpoint's config is the run's config, so a file given
    with ``--stage flow`` was read and then ignored: now it is refused
    before anything is written, whatever it holds."""
    _, ds, _, ckpt = workspace
    out = tmp_path / "o.ckpt"
    out.write_bytes(ckpt.read_bytes())
    cfg = tmp_path / "flow.cfg"
    cfg.write_text("[encoder]\nin_size = 64\n[train]\nstage2_epochs = 1\n", encoding="ascii")
    capsys.readouterr()
    assert main(["train", "--data", str(ds), "--out", str(out), "--config", str(cfg),
                 "--stage", "flow"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no epoch ran
    assert "--stage flow keeps the config of the checkpoint at --out" in captured.err
    assert "--set" in captured.err
    assert out.read_bytes() == ckpt.read_bytes()


def test_stage_flow_rejects_structural_overrides(workspace, tmp_path, capsys):
    root, ds, cfg, ckpt = workspace
    out = tmp_path / "o.ckpt"
    out.write_bytes(ckpt.read_bytes())
    # flow.variant sizes the flows: the prefix rule covers it with the rest
    for override in ("flow.n_blocks=4", "flow.variant=P"):
        assert main(["train", "--data", str(ds), "--out", str(out),
                     "--stage", "flow", "--set", override]) == 1
        err = capsys.readouterr().err
        assert override.split("=")[0] in err
        assert out.read_bytes() == ckpt.read_bytes()


def test_set_override_changes_behavior(workspace, tmp_path, capsys):
    root, ds, cfg, _ = workspace
    ckpt = tmp_path / "o.ckpt"
    assert main(["train", "--data", str(ds), "--out", str(ckpt),
                 "--config", str(cfg), "--set", "train.stage1_epochs=1",
                 "--set", "train.stage2_epochs=1"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert len(rows) == 2  # one epoch per stage


def test_unknown_override_key_fails(workspace, tmp_path, capsys):
    root, ds, cfg, _ = workspace
    assert main(["train", "--data", str(ds), "--out", str(tmp_path / "x.ckpt"),
                 "--config", str(cfg), "--set", "train.warmup=5"]) == 1
    assert "warmup" in capsys.readouterr().err


def test_score_prints_parseable_value(workspace, tmp_path, capsys):
    root, ds, cfg, ckpt = workspace
    img = next(s.path for s in data.load(ds) if s.split == "test")
    assert main(["score", "--image", str(ds / img), "--ckpt", str(ckpt)]) == 0
    value = float(capsys.readouterr().out.strip())
    assert np.isfinite(value)


def test_score_defaults_to_the_checkpoint_mode(workspace, tmp_path, capsys):
    root, ds, cfg, ckpt = workspace
    model, rc = load_checkpoint(ckpt)
    latent = tmp_path / "latent.ckpt"
    save_checkpoint(model, apply_overrides(rc, ["scoring.mode=latent_norm"]), latent)
    img = str(ds / next(s.path for s in data.load(ds) if s.split == "test"))
    printed = {}
    for mode in (None, "latent_norm", "likelihood"):
        flags = ["--mode", mode] if mode else []
        assert main(["score", "--image", img, "--ckpt", str(latent), *flags]) == 0
        printed[mode] = capsys.readouterr().out
    assert printed[None] == printed["latent_norm"] != printed["likelihood"]


def test_score_heatmap_roundtrip(workspace, tmp_path, capsys):
    root, ds, cfg, ckpt = workspace
    samples = data.load(ds)
    img = next(s.path for s in samples if s.label == 1)
    heat = tmp_path / "h.pgm"
    assert main(["score", "--image", str(ds / img), "--ckpt", str(ckpt),
                 "--heatmap", str(heat)]) == 0
    capsys.readouterr()
    blob = heat.read_bytes()
    assert blob.startswith(b"P5\n# raw range [")
    header, _, _ = blob.partition(b"65535\n")
    assert b"32 32" in header
    payload = np.frombuffer(blob.split(b"65535\n", 1)[1], dtype=">u2")
    assert payload.size == 32 * 32
    assert payload.min() == 0 and payload.max() == 65535  # min-max scaled
    # the comment carries the raw range as two parseable floats
    comment = header.split(b"\n")[1].decode()
    lo, hi = json.loads(comment.split("raw range ", 1)[1])
    assert lo < hi


def test_score_rejects_wrong_size_image(workspace, tmp_path, capsys):
    root, ds, cfg, ckpt = workspace
    big = tmp_path / "big.ppm"
    data.write_ppm(big, np.zeros((48, 48, 3)))
    assert main(["score", "--image", str(big), "--ckpt", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert "32x32" in err


def test_eval_report_json(workspace, tmp_path, capsys):
    root, ds, cfg, ckpt = workspace
    report_path = tmp_path / "r.json"
    assert main(["eval", "--data", str(ds), "--ckpt", str(ckpt),
                 "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert set(parsed) == {"image_auroc", "pixel_auroc", "au_pro", "spro",
                           "per_scale"}
    for key in ("image_auroc", "pixel_auroc", "au_pro", "spro"):
        assert 0.0 <= parsed[key] <= 1.0
    assert set(parsed["per_scale"]) == {"scale_0", "scale_1", "scale_2"}
    assert json.loads(report_path.read_text()) == parsed


def test_eval_mode_override(workspace, capsys):
    root, ds, cfg, ckpt = workspace
    assert main(["eval", "--data", str(ds), "--ckpt", str(ckpt),
                 "--mode", "recon_self"]) == 0
    a = json.loads(capsys.readouterr().out)
    assert main(["eval", "--data", str(ds), "--ckpt", str(ckpt)]) == 0
    b = json.loads(capsys.readouterr().out)
    assert a != b


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["train"])  # missing required arguments
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2
    capsys.readouterr()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_refuses_to_save_non_finite_weights(workspace, tmp_path, capsys):
    """With a learning rate of 1e308, one epoch of one batch passes the loss
    check, which runs before the step, and the step leaves float32 weights
    infinite: the end-of-epoch parameter check stops the stage, so
    ``train`` exits 1 and writes no checkpoint, which ``score`` would
    reject."""
    _, ds, cfg, _ = workspace
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--data", str(ds), "--out", str(ckpt), "--config", str(cfg),
                 "--stage", "transformer", "--set", "train.lr=1e308",
                 "--set", "train.stage1_epochs=1", "--set", "train.batch_size=4"]) == 1
    err = capsys.readouterr().err
    assert ("error: non-finite values in transformer parameter 'embed.0.w' "
            "after epoch 0") in err
    assert "wrote" not in err
    assert not ckpt.exists()


def test_runtime_errors_exit_1(tmp_path, capsys):
    assert main(["eval", "--data", str(tmp_path), "--ckpt",
                 str(tmp_path / "none.ckpt")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("override", [
    "train.lr=nan", "train.lr=inf", "flow.clamp=nan", "flow.clamp=inf",
    "flow.hidden_ratio=-1", "scoring.smooth_sigma=nan",
    "scoring.smooth_sigma=-2", "scoring.smooth_sigma=1e8", "patch_embed.token_dim=0",
    "train.stage1_epochs=-3",
    # 5 heads do not divide the 24-wide tokens: checked when the model is built
    "attention.heads=5"])
def test_malformed_config_value_exits_1(workspace, tmp_path, capsys, override):
    _, ds, cfg, _ = workspace
    assert main(["train", "--data", str(ds), "--out", str(tmp_path / "m.ckpt"),
                 "--config", str(cfg), "--set", override]) == 1
    out, err = capsys.readouterr()
    # rejected before any training step
    assert out == "" and "error:" in err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("defect", [
    b"\xe9", b"\tnan", b"\t7", b"\t0",
    # whole rows that name files through paths leaving the dataset
    b"train/../../ds/train/0000.ppm\t0\t-\t1.0", b"train//0000.ppm\t0\t-\t1.0",
    b"train\\0000.ppm\t0\t-\t1.0", b"test/0003.ppm\t1\t{ds}/masks/0003.pgm\t1.0",
    b"{ds}/train/0000.ppm\t0\t-\t1.0"])
def test_malformed_manifest_exits_1(workspace, tmp_path, capsys, defect):
    _, ds, cfg, _ = workspace
    copy = tmp_path / "ds"
    shutil.copytree(ds, copy)
    first, rest = (ds / "manifest.tsv").read_bytes().split(b"\n", 1)
    if defect.count(b"\t") == 3:  # replace the row
        first, defect = b"", defect.replace(b"{ds}", os.fsencode(copy))
    elif defect.startswith(b"\t"):  # replace the saturation field
        first = first.rsplit(b"\t", 1)[0]
    (copy / "manifest.tsv").write_bytes(first + defect + b"\n" + rest)
    assert main(["train", "--data", str(copy), "--out", str(tmp_path / "m.ckpt"),
                 "--config", str(cfg)]) == 1
    assert "manifest.tsv" in capsys.readouterr().err


def test_symlink_leaving_the_dataset_exits_1(workspace, tmp_path, capsys):
    _, ds, cfg, _ = workspace
    outside = tmp_path / "outside"
    shutil.copytree(ds, outside)
    for link, target in (("train/0000.ppm", outside / "train" / "0000.ppm"),
                         ("test", outside / "test")):
        copy = tmp_path / link.replace("/", "_")
        shutil.copytree(ds, copy)
        replace_with_symlink(copy / link, target)
        assert main(["train", "--data", str(copy), "--out", str(tmp_path / "m.ckpt"),
                     "--config", str(cfg)]) == 1
        assert "outside the dataset" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


def test_mixed_size_training_images_exit_1(workspace, tmp_path, capsys):
    _, ds, cfg, _ = workspace
    copy = tmp_path / "ds"
    shutil.copytree(ds, copy)
    data.write_ppm(copy / "train" / "0001.ppm", np.zeros((16, 16, 3)))
    assert main(["train", "--data", str(copy), "--out", str(tmp_path / "m.ckpt"),
                 "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "training image 1 has shape (16, 16, 3)" in err
    assert not (tmp_path / "m.ckpt").exists()


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 5 and all(line.startswith("ok ") for line in lines), lines


def test_train_help_embeds_default_config(capsys):
    with pytest.raises(SystemExit) as e:
        main(["train", "--help"])
    assert e.value.code == 0
    text = capsys.readouterr().out
    assert "[encoder]" in text and "stage_channels = 16,32,64" in text


def _config_keys() -> list:
    """``section.key`` of every line of the rendered default config."""
    keys, section = [], None
    for line in render_run_config(default_run_config()).splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif line:
            keys.append(f"{section}.{line.split(' = ')[0]}")
    return keys


def test_config_surface_is_pinned():
    """Every knob of the run config; adding or retiring one edits this list."""
    assert _config_keys() == [
        "encoder.in_size", "encoder.stage_channels",
        "patch_embed.token_dim",
        "attention.depth", "attention.heads", "attention.mlp_ratio",
        "flow.variant", "flow.n_blocks", "flow.clamp", "flow.hidden_ratio",
        "train.lr", "train.batch_size", "train.stage1_epochs", "train.stage2_epochs",
        "train.seed",
        "scoring.mode", "scoring.smooth_sigma", "scoring.fuse_weight", "scoring.fpr_limit"]


def test_every_config_field_is_a_key():
    """Each field of a section's dataclass is an INI key of that section: a
    field kept out of the file, such as a copy of another section's value,
    would need a special case in the reader to be set."""
    rc = default_run_config()
    fields = [f"{section.name}.{field.name}" for section in dataclasses.fields(rc)
              for field in dataclasses.fields(getattr(rc, section.name))]
    assert sorted(set(fields) - set(_config_keys())) == []


# a valid value other than the default for every config key
NON_DEFAULT = {
    "encoder.in_size": "128", "encoder.stage_channels": "8,16,32",
    "patch_embed.token_dim": "120",
    "attention.depth": "3", "attention.heads": "8", "attention.mlp_ratio": "2",
    "flow.variant": "P-M", "flow.n_blocks": "4", "flow.clamp": "1.5",
    "flow.hidden_ratio": "0.5", "train.lr": "0.001", "train.batch_size": "4",
    "train.stage1_epochs": "5", "train.stage2_epochs": "7", "train.seed": "3",
    "scoring.mode": "recon_mem",
    "scoring.smooth_sigma": "2.5", "scoring.fuse_weight": "0.25", "scoring.fpr_limit": "0.05"}


def test_non_default_values_cover_exactly_the_config_keys():
    """A retired key's stale entry, or a new key without one, fails here
    rather than going unnoticed by the per-key test below."""
    assert sorted(NON_DEFAULT) == sorted(_config_keys())


@pytest.mark.parametrize("key", _config_keys())
def test_every_config_key_round_trips(key):
    """A config file and ``--set`` build the same config from one key, and
    rendering it, then parsing the text back, gives it again."""
    section, name = key.split(".")
    raw = NON_DEFAULT[key]
    rc = parse_run_config(f"[{section}]\n{name} = {raw}\n")
    assert rc != default_run_config()
    assert apply_overrides(default_run_config(), [f"{key}={raw}"]) == rc
    text = render_run_config(rc)
    assert f"[{section}]" in text and f"\n{name} = {raw}\n" in text
    assert parse_run_config(text) == rc


def test_override_order_does_not_matter():
    """A token width and a heads count set in one call give one config,
    whichever comes first, in a file or in ``--set`` flags."""
    want = parse_run_config("[patch_embed]\ntoken_dim = 120\n[attention]\nheads = 5\n")
    assert want.attention.heads == 5
    assert parse_run_config("[attention]\nheads = 5\n[patch_embed]\ntoken_dim = 120\n") == want
    pairs = ["patch_embed.token_dim=120", "attention.heads=5"]
    assert apply_overrides(default_run_config(), pairs) == want
    assert apply_overrides(default_run_config(), pairs[::-1]) == want


def test_config_keys_are_case_sensitive_in_both_forms():
    """A file once lower-cased its keys, which ``--set`` never did."""
    with pytest.raises(ContractError, match="unknown config key train.LR"):
        parse_run_config("[train]\nLR = 0.001\n")
    with pytest.raises(ContractError, match="unknown config key train.LR"):
        apply_overrides(default_run_config(), ["train.LR=0.001"])


def test_default_section_is_rejected(tmp_path, capsys):
    """configparser's [DEFAULT] is no config section: its keys were once
    silently ignored."""
    with pytest.raises(ContractError, match=r"unknown config section \[DEFAULT\]"):
        parse_run_config("[DEFAULT]\nbogus = 1\n")
    cfg = tmp_path / "d.cfg"
    cfg.write_text("[DEFAULT]\nbogus = 1\n", encoding="ascii")
    assert main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.ckpt"),
                 "--config", str(cfg)]) == 1
    assert "unknown config section [DEFAULT]" in capsys.readouterr().err
