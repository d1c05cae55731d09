import csv
import dataclasses
import errno
import os
import re
import struct
import warnings

import numpy as np
import pytest

from bistddp import cli, train
from bistddp.cli import ExperimentConfig, main
from bistddp.ingest import load_corpus
from bistddp.model import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint
from bistddp.numerics import Diverged
from conftest import foursquare_lines


def run(*args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def prepared_dir(raw_foursquare, tmp_path):
    out = tmp_path / "prep"
    assert run("prepare", "--data", raw_foursquare, "--format", "foursquare",
               "--out", out) == 0
    return out


class TestPrepare:
    def test_creates_artifacts_with_hand_counted_stats(self, prepared_dir):
        assert (prepared_dir / "corpus.tsv").exists()
        assert (prepared_dir / "config.txt").exists()
        rows = read_csv(prepared_dir / "stats.csv")
        raw = next(r for r in rows if r["stage"] == "raw")
        # fixture: 20 users x 12 check-ins over 12 POIs, everything survives
        assert (raw["users"], raw["pois"], raw["checkins"]) == ("20", "12", "240")
        filtered = next(r for r in rows if r["stage"] == "filtered")
        assert filtered["checkins"] == "240"
        assert float(raw["sparsity"]) == pytest.approx(1 - 240 / (20 * 12))

    def test_small_fixture_stats_equal_hand_count(self, tmp_path):
        # 2 users x 10 check-ins over 4 POIs: 20 lines, survives only with
        # relaxed thresholds
        lines = foursquare_lines(n_users=2, n_pois=4, checkins_per_user=10)
        raw = tmp_path / "tiny.tsv"
        raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("prepare", "--data", raw, "--format", "foursquare", "--out", out,
                   "--min-user", 1, "--min-poi-users", 1) == 0
        rows = read_csv(out / "stats.csv")
        raw_row = next(r for r in rows if r["stage"] == "raw")
        assert (raw_row["users"], raw_row["pois"], raw_row["checkins"]) == ("2", "4", "20")

    def test_empty_input_is_bad_input(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        assert run("prepare", "--data", empty, "--format", "foursquare",
                   "--out", tmp_path / "o") == 2
        assert not (tmp_path / "o").exists()

    def test_everything_filtered_is_bad_input(self, tmp_path):
        lines = foursquare_lines(n_users=2, n_pois=4, checkins_per_user=10)
        raw = tmp_path / "tiny.tsv"
        raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run("prepare", "--data", raw, "--format", "foursquare",
                   "--out", tmp_path / "o") == 2  # default 10/10 kills it
        assert not (tmp_path / "o").exists()


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=3\nbogus_key=1\n", encoding="utf-8")
        assert run("selfcheck", "--config", cfg) == 2

    @pytest.mark.parametrize("text, line, message", [
        (b"seed=3\nd=8\nlr=0.\xff01\n", 3, "not UTF-8: byte 0xff at column 6"),
        (b"# seeds\nseed=3\n\nseed = 4\n", 4, "config key 'seed' is set again"),
        (b"seed=3\nseed=3\n", 2, "config key 'seed' is set again"),
        (b"seed=3\r\nbogus_key=1\r\n", 2, "unknown config key 'bogus_key'"),
        # open() would refuse the path with a ValueError of its own
        (b"seed=3\ndata=a\0b\n", 2, "NUL byte at column 7"),
    ], ids=["non-UTF-8", "repeated", "repeated with the same value", "unknown", "NUL"])
    def test_file_error_names_the_file_and_line(self, raw_foursquare, tmp_path, capsys,
                                                text, line, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(text)
        out = tmp_path / "o"
        assert run("prepare", "--config", cfg, "--data", raw_foursquare, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {cfg}:{line}: {message}\n"
        assert not out.exists()

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs=often\n", encoding="utf-8")
        assert run("selfcheck", "--config", cfg) == 2

    def test_cli_overrides_file(self, raw_foursquare, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=7\nmin_user=1\nmin_poi_users=1\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run("prepare", "--config", cfg, "--data", raw_foursquare,
                   "--format", "foursquare", "--out", out, "--seed", 9) == 0
        text = (out / "config.txt").read_text(encoding="utf-8")
        assert "seed=9" in text and "min_user=1" in text

    def test_bad_variant_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            run("train", "--data", "x", "--variant", "nope")
        assert e.value.code == 2

    @pytest.mark.parametrize("command", [("train",), ("sweep", "--grid", "d=2,4")])
    def test_negative_seed_is_bad_config_and_writes_nothing(self, prepared_dir, tmp_path,
                                                            capsys, command):
        out = tmp_path / "o"
        assert run(*command, "--data", prepared_dir / "corpus.tsv", "--out", out,
                   "--d", 3, "--h", 4, "--epochs", 1, "--seed", -1) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("epochs", "often"), ("k", "0"), ("lr", "fast")])
    def test_flag_and_file_values_parse_the_same(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key}={value}\n", encoding="utf-8")
        by_file = run("train", "--data", "x", "--config", cfg), capsys.readouterr().err
        by_flag = run("train", "--data", "x", f"--{key}", value), capsys.readouterr().err
        assert by_flag == by_file == (2, f"error: bad value for {key}: {value!r}\n")

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_help_lists_one_flag_per_config_key(self, command, capsys):
        with pytest.raises(SystemExit) as e:
            run(command, "--help")
        assert e.value.code == 0
        options = capsys.readouterr().out.split("options:")[1]
        flags = re.findall(r"^  (--[a-z-]+)", options, flags=re.MULTILINE)
        own = {"--config", "--checkpoint", "--resume-from", "--split", "--grid"}
        keys = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert [flag for flag in flags if flag not in own] == [
            "--" + key.replace("_", "-") for key in keys]


class TestTrainEvaluate:
    def train(self, prepared_dir, out, seed=0, extra=()):
        return run("train", "--data", prepared_dir / "corpus.tsv", "--out", out,
                   "--d", 4, "--h", 6, "--epochs", 2, "--batch", 64,
                   "--seed", seed, *extra)

    def test_train_writes_checkpoint_and_log(self, prepared_dir, tmp_path):
        out = tmp_path / "run"
        assert self.train(prepared_dir, out) == 0
        assert (out / "checkpoint.bin").exists()
        log = read_csv(out / "train_log.csv")
        assert len(log) == 2
        assert set(log[0]) == {"epoch", "train_loss", "val_recall@1", "val_recall@5",
                               "val_recall@10", "val_map", "seconds"}

    @pytest.mark.parametrize("under", [False, True], ids=["a file", "under a file"])
    def test_out_that_is_or_is_under_a_file_exits_2(self, raw_foursquare, prepared_dir, tmp_path,
                                                    capsys, under):
        # creating --out fails with FileExistsError or NotADirectoryError:
        # bad input, like any other path --out cannot be made at
        assert self.train(prepared_dir, tmp_path / "run") == 0
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"a file\n")
        out = blocker / "out" if under else blocker
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("prepare", "--data", raw_foursquare, "--out", out) == 2
            assert run("evaluate", "--data", prepared_dir / "corpus.tsv", "--checkpoint",
                       tmp_path / "run" / "checkpoint.bin", "--out", out) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        code = errno.ENOTDIR if under else errno.EEXIST
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: [Errno {code}] {os.strerror(code)}: "
                                             f"'{out}'"] * 2
        assert blocker.read_bytes() == b"a file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "prep", "raw.tsv", "run"]

    def test_diverged_run_exits_1_without_artifacts(self, prepared_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert self.train(prepared_dir, out, extra=("--lr", 1e308, "--epochs", 3)) == 1
        err = capsys.readouterr().err
        assert err.startswith("diverged: epoch 1: non-finite") and err.count("\n") == 1
        assert not out.exists()  # not even config.txt

    def test_diverged_last_update_exits_1_without_artifacts(self, prepared_dir, tmp_path,
                                                            capsys):
        # one batch, one epoch: the loss is finite, and the update itself
        # overflows, before any ranking
        out = tmp_path / "run"
        assert self.train(prepared_dir, out,
                          extra=("--lr", 1e308, "--epochs", 1, "--batch", 100000)) == 1
        assert capsys.readouterr().err.startswith(
            "diverged: epoch 1: non-finite value in a training step (overflow")
        assert not out.exists()

    def test_overflow_in_a_training_step_exits_1_without_artifacts(self, prepared_dir,
                                                                   tmp_path, capsys):
        # every batch loss is finite; the parameters the updates leave behind
        # overflow a later step
        out = tmp_path / "run"
        assert self.train(prepared_dir, out, extra=("--lr", 1e300, "--epochs", 3)) == 1
        assert re.fullmatch(r"diverged: epoch \d: non-finite value in a training "
                            r"step \(overflow [^\n]*\)\n", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag", [("--lr", "nan"), ("--lr", "inf"), ("--lr", 0),
                                      ("--metric", "val_recall@7"), ("--metric", "val_mrr"),
                                      ("--metric", "train_recall@0")])
    def test_bad_lr_or_metric_exits_2_before_training(self, prepared_dir, tmp_path, capsys,
                                                      flag):
        out = tmp_path / "run"
        assert self.train(prepared_dir, out, extra=flag) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()  # found while reading the config, before anything is written

    def test_val_metric_on_a_corpus_with_no_val_samples_exits_2(self, raw_foursquare, tmp_path,
                                                                capsys):
        prep = tmp_path / "w3"  # 12 check-ins per user at w=3: train samples only
        assert run("prepare", "--data", raw_foursquare, "--format", "foursquare",
                   "--out", prep, "--w", 3) == 0
        out = tmp_path / "run"
        assert self.train(prep, out) == 2
        assert "needs a non-empty validation split" in capsys.readouterr().err
        assert not (out / "checkpoint.bin").exists()
        assert not (out / "train_log.csv").exists()
        assert self.train(prep, out, extra=("--metric", "train_loss")) == 0

    def test_window_other_than_the_corpus_exits_2(self, prepared_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert self.train(prepared_dir, out, extra=("--w", 2)) == 2
        err = capsys.readouterr().err
        assert "w=2" in err and "w=1" in err
        assert not (out / "checkpoint.bin").exists()
        # the corpus's own window, set explicitly or in a config file, is accepted
        assert self.train(prepared_dir, out, extra=("--w", 1, "--epochs", 1)) == 0
        cfg = tmp_path / "w2.cfg"
        cfg.write_text("w=2\n", encoding="utf-8")
        for command in (("evaluate", "--checkpoint", out / "checkpoint.bin"), ("ablate",)):
            assert run(*command, "--config", cfg, "--data", prepared_dir / "corpus.tsv",
                       "--out", tmp_path / command[0]) == 2
        assert not (tmp_path / "evaluate" / "report_test.csv").exists()
        assert not (tmp_path / "ablate" / "ablation.csv").exists()
        # unset, w is the corpus's, and the resolved config records it
        w2 = tmp_path / "w2"
        assert run("prepare", "--data", prepared_dir.parent / "raw.tsv", "--format",
                   "foursquare", "--out", w2, "--w", 2) == 0
        assert self.train(w2, tmp_path / "r2", extra=("--epochs", 1)) == 0
        resolved = tmp_path / "r2" / "config.txt"
        assert "w=2" in resolved.read_text(encoding="utf-8").splitlines()
        assert run("train", "--config", resolved, "--out", tmp_path / "r3") == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_checkpoint_exits_2(self, prepared_dir, tmp_path, capsys, value):
        # bad input, found when the checkpoint is read: evaluate and resume
        # both exit 2, naming the file and the tensor, before writing anything
        out = tmp_path / "run"
        assert self.train(prepared_dir, out) == 0
        params = load_checkpoint(out / "checkpoint.bin")
        params.out_weights[3, 0] = value
        save_checkpoint(out / "checkpoint.bin", params)
        capsys.readouterr()
        ev, resumed = tmp_path / "ev", tmp_path / "resumed"
        assert run("evaluate", "--data", prepared_dir / "corpus.tsv",
                   "--checkpoint", out / "checkpoint.bin", "--out", ev) == 2
        assert self.train(prepared_dir, resumed,
                          extra=("--resume-from", out / "checkpoint.bin")) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {out / 'checkpoint.bin'}: out_weights[3, 0] is {value}; "
                       "every value must be finite"] * 2
        assert not ev.exists() and not resumed.exists()

    def test_an_internal_value_error_exits_1_without_artifacts(self, prepared_dir, tmp_path,
                                                               monkeypatch, capsys):
        # a fault in the package is not bad input, whatever its exception type
        def broadcast_fault(*args):
            return np.zeros(3) + np.zeros(4)

        monkeypatch.setattr(train, "adam_step", broadcast_fault)
        out = tmp_path / "run"
        assert self.train(prepared_dir, out) == 1
        assert capsys.readouterr().err == ("internal error: operands could not be broadcast "
                                           "together with shapes (3,) (4,) \n")
        assert not out.exists()

    def test_checkpoint_that_overflows_while_ranking_exits_1_without_artifacts(
            self, prepared_dir, tmp_path, capsys):
        # every value is finite, so the checkpoint loads, but the forward pass
        # overflows: evaluate scores before it writes, so --out never appears
        out = tmp_path / "run"
        assert self.train(prepared_dir, out) == 0
        params = load_checkpoint(out / "checkpoint.bin")
        params.data *= 1e300
        save_checkpoint(out / "checkpoint.bin", params)
        capsys.readouterr()
        ev = tmp_path / "ev"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("evaluate", "--data", prepared_dir / "corpus.tsv",
                       "--checkpoint", out / "checkpoint.bin", "--out", ev) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert re.fullmatch(r"diverged: non-finite value while ranking "
                            r"\(overflow [^\n]*\)\n", capsys.readouterr().err)
        assert not ev.exists()

    def test_config_records_the_checkpoint_d_and_h(self, prepared_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert self.train(prepared_dir, out) == 0  # d=4, h=6
        data, ck = prepared_dir / "corpus.tsv", out / "checkpoint.bin"

        def resolved(directory):
            lines = (directory / "config.txt").read_text(encoding="utf-8").splitlines()
            return [line for line in lines if line[:2] in ("d=", "h=")]

        # unset, d and h are the checkpoint's
        assert run("train", "--data", data, "--out", tmp_path / "r", "--epochs", 1,
                   "--batch", 64, "--resume-from", ck) == 0
        assert run("evaluate", "--data", data, "--checkpoint", ck, "--out", tmp_path / "e") == 0
        assert resolved(tmp_path / "r") == resolved(tmp_path / "e") == ["d=4", "h=6"]
        # set to the checkpoint's values, by flag or config file, they are accepted
        cfg = tmp_path / "same.cfg"
        cfg.write_text("d=4\nh=6\n", encoding="utf-8")
        assert run("evaluate", "--data", data, "--checkpoint", ck, "--config", cfg,
                   "--out", tmp_path / "e2") == 0
        assert run("evaluate", "--data", data, "--checkpoint", ck, "--d", 4,
                   "--out", tmp_path / "e3") == 0
        # set to another value, they exit 2 before anything is written
        cfg.write_text("h=256\n", encoding="utf-8")
        capsys.readouterr()
        for k, (extra, wrong) in enumerate([(("--d", 32), "d=32"), (("--config", cfg), "h=256"),
                                            (("--d", 4, "--h", 7), "h=7")]):
            fresh = tmp_path / f"bad{k}"
            assert run("train", "--data", data, "--out", fresh / "r", "--epochs", 1,
                       "--resume-from", ck, *extra) == 2
            assert run("evaluate", "--data", data, "--checkpoint", ck, "--out", fresh / "e",
                       *extra) == 2
            right = {"d": "d=4", "h": "h=6"}[wrong[0]]
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 2
            assert all(f"{wrong} was set" in line and f"{ck} has {right}" in line for line in err)
            assert not fresh.exists()

    def test_checkpoint_header_past_the_file_exits_2(self, prepared_dir, tmp_path, capsys):
        # a header claiming M = 4e9 would need 119 GiB of tensors
        ck = tmp_path / "huge.bin"
        ck.write_bytes(CHECKPOINT_MAGIC + struct.pack("<5I", 20, 4_000_000_000, 4, 6, 1)
                       + b"\0" * 64)
        assert run("evaluate", "--data", prepared_dir / "corpus.tsv",
                   "--checkpoint", ck, "--out", tmp_path / "ev") == 2
        assert "implies" in capsys.readouterr().err

    def test_checkpoint_header_with_a_zero_dimension_exits_2(self, prepared_dir, tmp_path,
                                                             capsys):
        # N = 0 with a payload of the size it implies: no model to evaluate
        ck = tmp_path / "empty.bin"
        ck.write_bytes(CHECKPOINT_MAGIC + struct.pack("<5I", 0, 12, 4, 6, 1)
                       + b"\0" * 8 * ((12 + 3 * 6) * 4 + 7 * 6 + 8 * 12))
        assert run("evaluate", "--data", prepared_dir / "corpus.tsv",
                   "--checkpoint", ck, "--out", tmp_path / "ev") == 2
        err = capsys.readouterr().err
        assert str(ck) in err and "zero dimension" in err

    def test_determinism_bitwise(self, prepared_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.train(prepared_dir, a, seed=5) == 0
        assert self.train(prepared_dir, b, seed=5) == 0
        assert (a / "checkpoint.bin").read_bytes() == (b / "checkpoint.bin").read_bytes()
        log_a = [r for r in read_csv(a / "train_log.csv")]
        log_b = [r for r in read_csv(b / "train_log.csv")]
        for ra, rb in zip(log_a, log_b):
            ra.pop("seconds"), rb.pop("seconds")  # wall time may differ
            assert ra == rb

    @pytest.mark.parametrize("metric", ["train_loss", "val_map"])
    def test_best_value_printed_is_the_logged_one(self, prepared_dir, tmp_path, capsys, metric):
        out = tmp_path / "run"
        assert self.train(prepared_dir, out, extra=("--epochs", 3, "--metric", metric)) == 0
        epoch, value = re.search(rf"best epoch (\d+) \({metric}=(\S+)\)",
                                 capsys.readouterr().out).groups()
        assert value == read_csv(out / "train_log.csv")[int(epoch) - 1][metric]

    def test_row_cache_capacity_leaves_the_artifacts_unchanged(self, prepared_dir, tmp_path):
        # a cache hit is bit-identical to a miss, so one row of cache gives the same bytes
        for name, capacity in (("default", ()), ("one", ("--cache-capacity", 1))):
            assert self.train(prepared_dir, tmp_path / name, extra=capacity) == 0
            assert run("evaluate", "--data", prepared_dir / "corpus.tsv", "--checkpoint",
                       tmp_path / name / "checkpoint.bin", "--out", tmp_path / name / "ev",
                       *capacity) == 0
        for artifact in ("checkpoint.bin", "ev/report_test.csv"):
            assert ((tmp_path / "default" / artifact).read_bytes()
                    == (tmp_path / "one" / artifact).read_bytes())

    def test_resume_refuses_mismatched_shapes(self, prepared_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert self.train(prepared_dir, out) == 0
        # rebuild the corpus with w=2: different sample width, same data
        out2 = tmp_path / "w2"
        raw = prepared_dir / "corpus.tsv"
        assert run("prepare", "--data", raw.parent.parent / "raw.tsv", "--format",
                   "foursquare", "--out", out2, "--w", 2) == 0
        capsys.readouterr()
        code = run("train", "--data", out2 / "corpus.tsv", "--out", tmp_path / "r2",
                   "--d", 4, "--h", 6, "--epochs", 1,
                   "--resume-from", out / "checkpoint.bin")
        assert code == 2
        # the error names the checkpoint and the corpus, and so does evaluate's
        err = capsys.readouterr().err
        assert "does not match" in err
        assert str(out / "checkpoint.bin") in err and str(out2 / "corpus.tsv") in err
        assert run("evaluate", "--data", out2 / "corpus.tsv", "--split", "val",
                   "--checkpoint", out / "checkpoint.bin", "--out", tmp_path / "ev") == 2
        err = capsys.readouterr().err
        assert "does not match" in err
        assert str(out / "checkpoint.bin") in err and str(out2 / "corpus.tsv") in err

    def test_resume_starts_from_the_checkpoint(self, prepared_dir, tmp_path):
        first, fresh, resumed = tmp_path / "first", tmp_path / "fresh", tmp_path / "resumed"
        assert self.train(prepared_dir, first) == 0
        assert self.train(prepared_dir, fresh) == 0
        assert self.train(prepared_dir, resumed,
                          extra=("--resume-from", first / "checkpoint.bin")) == 0

        def first_loss(out):
            return float(read_csv(out / "train_log.csv")[0]["train_loss"])

        assert first_loss(fresh) == first_loss(first)  # same seed, same start
        assert first_loss(resumed) < first_loss(first)  # two epochs further along

    def test_evaluate_writes_report(self, prepared_dir, tmp_path):
        out = tmp_path / "run"
        assert self.train(prepared_dir, out) == 0
        ev = tmp_path / "ev"
        assert run("evaluate", "--data", prepared_dir / "corpus.tsv",
                   "--checkpoint", out / "checkpoint.bin", "--out", ev,
                   "--split", "test") == 0
        rows = read_csv(ev / "report_test.csv")
        metrics = {r["metric"]: float(r["value"]) for r in rows}
        assert "recall@5" in metrics and "map" in metrics
        assert 0.0 <= metrics["map"] <= 1.0

    def test_evaluate_deterministic(self, prepared_dir, tmp_path):
        out = tmp_path / "run"
        assert self.train(prepared_dir, out) == 0
        e1, e2 = tmp_path / "e1", tmp_path / "e2"
        for ev in (e1, e2):
            assert run("evaluate", "--data", prepared_dir / "corpus.tsv",
                       "--checkpoint", out / "checkpoint.bin", "--out", ev) == 0
        assert (e1 / "report_test.csv").read_bytes() == (e2 / "report_test.csv").read_bytes()


class TestBaselinesCommand:
    def test_reports_all_four(self, prepared_dir, tmp_path):
        out = tmp_path / "bl"
        assert run("baselines", "--data", prepared_dir / "corpus.tsv",
                   "--out", out, "--split", "test") == 0
        rows = read_csv(out / "baselines.csv")
        assert [r["model"] for r in rows] == ["forward", "backward", "top1", "top2"]
        for r in rows:
            assert 0.0 <= float(r["map"]) <= 1.0

    def test_baselines_and_sweep_record_the_corpus_window(self, tmp_path):
        raw = tmp_path / "raw.tsv"  # long enough histories for test samples at w=2
        raw.write_text("\n".join(foursquare_lines(checkins_per_user=30)) + "\n", encoding="utf-8")
        w2 = tmp_path / "w2"
        assert run("prepare", "--data", raw, "--format", "foursquare", "--out", w2, "--w", 2) == 0
        assert run("baselines", "--data", w2 / "corpus.tsv", "--out", tmp_path / "bl") == 0
        assert run("sweep", "--data", w2 / "corpus.tsv", "--out", tmp_path / "sw",
                   "--grid", "d=2", "--h", 4, "--epochs", 1, "--batch", 64) == 0
        for command in ("bl", "sw"):
            resolved = (tmp_path / command / "config.txt").read_text(encoding="utf-8")
            assert "w=2" in resolved.splitlines(), command

    def test_baselines_and_sweep_reject_a_window_the_corpus_lacks(self, prepared_dir, tmp_path):
        data = prepared_dir / "corpus.tsv"  # prepared with w=1
        config = tmp_path / "w3.cfg"
        config.write_text("w=3\n", encoding="utf-8")
        assert run("baselines", "--data", data, "--out", tmp_path / "bl", "--w", 3) == 2
        assert run("baselines", "--data", data, "--out", tmp_path / "bl", "--config", config) == 2
        assert run("sweep", "--data", data, "--out", tmp_path / "sw", "--w", 3,
                   "--grid", "d=2", "--h", 4, "--epochs", 1, "--batch", 64) == 2
        assert not (tmp_path / "bl" / "baselines.csv").exists()
        assert not (tmp_path / "sw" / "sweep.csv").exists()
        assert run("baselines", "--data", data, "--out", tmp_path / "bl", "--w", 1) == 0

    def test_cutoffs_follow_the_k_order(self, prepared_dir, tmp_path, capsys):
        # a repeated cutoff is listed once, where it first appears
        data = prepared_dir / "corpus.tsv"
        assert run("train", "--data", data, "--out", tmp_path / "tr", "--d", 3, "--h", 4,
                   "--epochs", 1, "--batch", 64) == 0
        assert run("evaluate", "--data", data, "--checkpoint", tmp_path / "tr" / "checkpoint.bin",
                   "--out", tmp_path / "ev", "--k", "10,1,10") == 0
        assert run("baselines", "--data", data, "--out", tmp_path / "bl", "--k", "10,1,10") == 0
        order = ["recall@10", "recall@1", "f1@10", "f1@1", "map"]
        report = read_csv(tmp_path / "ev" / "report_test.csv")
        assert [r["metric"] for r in report] == [*order, "instances"]
        assert all(len(r["value"].split(".")[1]) == 6 for r in report[:-1])
        assert report[-1]["value"] == "20"
        assert list(read_csv(tmp_path / "bl" / "baselines.csv")[0])[1:6] == order
        heads = [line.split() for line in capsys.readouterr().out.splitlines()
                 if line.startswith("model")]
        assert heads and all(head[1:6] == ["r@10", "r@1", "f1@10", "f1@1", "map"] for head in heads)


class TestAblateAndSweep:
    def test_ablate_emits_five_variants(self, prepared_dir, tmp_path):
        out = tmp_path / "ab"
        assert run("ablate", "--data", prepared_dir / "corpus.tsv", "--out", out,
                   "--d", 3, "--h", 4, "--epochs", 1, "--batch", 64) == 0
        rows = read_csv(out / "ablation.csv")
        assert [r["model"] for r in rows] == ["bi-stddp", "f-stddp", "b-stddp", "bi-b", "bi-a"]

    def test_diverged_ablate_writes_nothing(self, prepared_dir, tmp_path, capsys):
        out = tmp_path / "ab"
        assert run("ablate", "--data", prepared_dir / "corpus.tsv", "--out", out, "--d", 4,
                   "--h", 6, "--batch", 64, "--lr", 1e308, "--epochs", 3) == 1
        assert capsys.readouterr().err.startswith("diverged: epoch 1: non-finite")
        assert not out.exists()  # not even config.txt

    def test_sweep_records_points_and_survives_failures(self, prepared_dir, tmp_path):
        out = tmp_path / "sw"
        assert run("sweep", "--data", prepared_dir / "corpus.tsv", "--out", out,
                   "--grid", "w=1,50", "--d", 3, "--h", 4, "--epochs", 1,
                   "--batch", 64) == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 2
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("error")

    def test_sweep_trains_no_point_it_cannot_score(self, prepared_dir, tmp_path, monkeypatch,
                                                   capsys):
        # on the fixture, w=2 leaves no test samples and w=3 no val samples either
        trained, fit = [], cli._fit
        monkeypatch.setattr(cli, "_fit", lambda cfg, *a: trained.append(cfg.w) or fit(cfg, *a))
        out = tmp_path / "sw"
        assert run("sweep", "--data", prepared_dir / "corpus.tsv", "--out", out,
                   "--grid", "w=1,2,3", "--d", 3, "--h", 4, "--epochs", 1, "--batch", 64) == 0
        assert trained == [1]
        assert [(r["value"], r["status"]) for r in read_csv(out / "sweep.csv")] == [
            ("1", "ok"), ("2", "error: no samples to evaluate"),
            ("3", "error: metric 'val_map' needs a non-empty validation split")]
        assert "w=2: FAILED (no samples to evaluate)\n" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", [RuntimeError, ValueError], ids=lambda e: e.__name__)
    def test_an_internal_error_at_a_point_ends_the_sweep(self, prepared_dir, tmp_path,
                                                         monkeypatch, capsys, fault):
        # only bad input at a point, or diverged training, is recorded as a failed row
        fit = cli._fit

        def fail_at_d4(cfg, *args):
            if cfg.d == 4:
                raise fault("a fault in the package")
            return fit(cfg, *args)

        monkeypatch.setattr(cli, "_fit", fail_at_d4)
        out = tmp_path / "sw"
        assert run("sweep", "--data", prepared_dir / "corpus.tsv", "--out", out,
                   "--grid", "d=2,4", "--h", 4, "--epochs", 1, "--batch", 64) == 1
        assert capsys.readouterr().err == "internal error: a fault in the package\n"
        assert not (out / "sweep.csv").exists()

    def test_non_finite_test_scores_at_a_point_are_a_failed_row(self, prepared_dir, tmp_path,
                                                                monkeypatch):
        # training adds the epoch to this error; scoring the test split raises it as it is
        target_ranks = cli.target_ranks

        def overflow_at_d4(samples, params, *args):
            if params.hyper.d == 4:
                raise Diverged("non-finite scores")
            return target_ranks(samples, params, *args)

        monkeypatch.setattr(cli, "target_ranks", overflow_at_d4)
        out = tmp_path / "sw"
        assert run("sweep", "--data", prepared_dir / "corpus.tsv", "--out", out,
                   "--grid", "d=2,4", "--h", 4, "--epochs", 1, "--batch", 64) == 0
        assert [(r["value"], r["status"]) for r in read_csv(out / "sweep.csv")] == [
            ("2", "ok"), ("4", "error: non-finite scores")]

    def test_sweep_single_point_matches_train_evaluate(self, prepared_dir, tmp_path):
        out = tmp_path / "sw1"
        assert run("sweep", "--data", prepared_dir / "corpus.tsv", "--out", out,
                   "--grid", "d=4", "--h", 6, "--epochs", 2, "--batch", 64,
                   "--seed", 0) == 0
        sweep_rows = read_csv(out / "sweep.csv")
        assert sweep_rows[0]["status"] == "ok"

        tr = tmp_path / "tr"
        assert run("train", "--data", prepared_dir / "corpus.tsv", "--out", tr,
                   "--d", 4, "--h", 6, "--epochs", 2, "--batch", 64, "--seed", 0) == 0
        ev = tmp_path / "ev"
        assert run("evaluate", "--data", prepared_dir / "corpus.tsv",
                   "--checkpoint", tr / "checkpoint.bin", "--out", ev) == 0
        report = {r["metric"]: r["value"] for r in read_csv(ev / "report_test.csv")}
        assert f"{float(sweep_rows[0]['map']):.6f}" == report["map"]

    def test_sweep_three_embedding_sizes(self, prepared_dir, tmp_path):
        out = tmp_path / "sw3"
        assert run("sweep", "--data", prepared_dir / "corpus.tsv", "--out", out,
                   "--grid", "d=2,4,8", "--h", 4, "--epochs", 1, "--batch", 64) == 0
        rows = read_csv(out / "sweep.csv")
        assert [(r["param"], r["value"], r["status"]) for r in rows] == [
            ("d", "2", "ok"), ("d", "4", "ok"), ("d", "8", "ok")]

    def test_bad_grid_is_bad_input(self, prepared_dir, tmp_path):
        assert run("sweep", "--data", prepared_dir / "corpus.tsv",
                   "--out", tmp_path / "x", "--grid", "lr=0.1") == 2


def test_a_command_that_exits_2_writes_nothing(raw_foursquare, tmp_path, capsys):
    # on the fixture, w=2 leaves no test samples and w=3 no val samples either
    data = {}
    for w in (1, 2, 3):
        assert run("prepare", "--data", raw_foursquare, "--out", tmp_path / f"w{w}", "--w", w) == 0
        data[w] = tmp_path / f"w{w}" / "corpus.tsv"
    small = ("--d", 3, "--h", 4, "--epochs", 1, "--batch", 64)
    for w in (1, 2):
        assert run("train", "--data", data[w], "--out", tmp_path / f"ck{w}", *small) == 0
    capsys.readouterr()
    cases = {
        "evaluate, empty split": (("evaluate", "--data", data[2], "--split", "test",
                                   "--checkpoint", tmp_path / "ck2" / "checkpoint.bin"),
                                  "no samples in split 'test'"),
        "baselines, empty split": (("baselines", "--data", data[2], "--split", "test"),
                                   "no samples in split 'test'"),
        "ablate, empty test split": (("ablate", "--data", data[2], *small),
                                     "no samples in split 'test'"),
        "train, no val samples": (("train", "--data", data[3], *small),
                                  "metric 'val_map' needs a non-empty validation split"),
        "evaluate, checkpoint of another corpus": (
            ("evaluate", "--data", data[2], "--split", "val",
             "--checkpoint", tmp_path / "ck1" / "checkpoint.bin"), "does not match"),
        "sweep, bad grid": (("sweep", "--data", data[1], "--grid", "lr=0.1", *small),
                            "sweep parameter must be d, h or w"),
    }
    for k, (case, (command, message)) in enumerate(cases.items()):
        out = tmp_path / f"out{k}"
        assert run(*command, "--out", out) == 2, case
        assert message in capsys.readouterr().err, case
        assert not out.exists(), case



def test_failed_csv_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "report.csv"
    cli._write_csv(path, [["metric", "value"], ["map", "0.500000"]])
    old = path.read_bytes()
    written = []

    def failing_row():  # after a row larger than the write buffer: it is on disk
        written.extend(p.stat().st_size for p in tmp_path.iterdir() if p != path)
        raise OSError("no space left on device")
        yield

    with pytest.raises(OSError, match="no space"):
        cli._write_csv(path, [["metric", "value"], ["x" * 20_000, "1"], failing_row()])
    assert len(written) == 1 and written[0] > 0  # it failed partway through a temp file
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


def _set_field(lines, line, field, value):
    """Set field `field` of 1-based line `line` and return the file's text."""
    parts = lines[line - 1].split("\t")
    parts[field] = str(value)
    lines[line - 1] = "\t".join(parts)
    return "\n".join(lines) + "\n"


def _earlier_than_previous(lines):
    previous = int(lines[35 - 1].split("\t")[3])
    return _set_field(lines, 36, 3, previous - 1)


# The fixture's corpus file: header on line 1, P records on lines 2-13,
# U records on 14-33, C records on 34-273 (user 0 on 34-45, user 1 from 46).
# Each edit returns the corrupted text (a lone surrogate stands for the raw
# byte it escapes); it is paired with the line at fault and a piece of the
# message.
CORRUPTIONS = {
    "header field count": (lambda L: _set_field(L, 1, 3, "1\t9"), 1, "4 fields"),
    "header count not an integer": (lambda L: _set_field(L, 1, 2, "12x"), 1, "bad count"),
    "P field count": (lambda L: _set_field(L, 2, 3, "-74.0\t0"), 2, "P record of 4 fields"),
    "U field count": (lambda L: _set_field(L, 14, 2, "12\t0\t12"), 14, "U record of 3 fields"),
    "C field count": (lambda L: _set_field(L, 40, 4, "-240\t1"), 40, "C record of 5 fields"),
    "check-in count not an integer": (lambda L: _set_field(L, 15, 2, "twelve"), 15,
                                      "bad check-in count"),
    "timestamp not an integer": (lambda L: _set_field(L, 41, 3, "1333500000.5"), 41,
                                 "bad timestamp"),
    "latitude out of range": (lambda L: _set_field(L, 5, 2, "95.0"), 5, "out of range"),
    "duplicate POI id": (lambda L: _set_field(L, 3, 1, "venue0"), 3, "first on line 2"),
    "duplicate user id": (lambda L: _set_field(L, 16, 1, "user0"), 16,
                          "duplicate user id 'user0' (first on line 14)"),
    "C block out of user order": (lambda L: _set_field(L, 46, 1, "2"), 46, "user order"),
    "POI outside [0, M)": (lambda L: _set_field(L, 50, 2, "99999"), 50, "outside [0, 12)"),
    "timestamp out of range": (lambda L: _set_field(L, 60, 3, "-5"), 60, "outside [1970"),
    "tz out of range": (lambda L: _set_field(L, 61, 4, "900"), 61, "tz offset 900"),
    "time decreases within a user": (_earlier_than_previous, 36, "earlier"),
    "missing last line": (lambda L: "\n".join(L[:-1]) + "\n", 273, "file ends"),
    "extra line": (lambda L: "\n".join(L + [L[-1]]) + "\n", 274, "extra line"),
    "last line cut short": (lambda L: "\n".join(L)[:-3], 273, "no newline"),
    # one integer rule for every integer field: ASCII digits, an optional
    # leading "-", at most 18 digits
    "check-in count with a plus sign": (lambda L: _set_field(L, 15, 2, "+12"), 15,
                                        "bad check-in count '+12'"),
    "plus sign": (lambda L: _set_field(L, 42, 2, "+5"), 42, "bad POI '+5'"),
    "leading space": (lambda L: _set_field(L, 43, 1, " 0"), 43, "bad user ' 0'"),
    "digit separator": (lambda L: _set_field(L, 44, 2, "1_0"), 44, "bad POI '1_0'"),
    "lone minus": (lambda L: _set_field(L, 47, 4, "-"), 47, "bad tz '-'"),
    "19-digit timestamp": (lambda L: _set_field(L, 48, 3, "1" + "0" * 18), 48,
                           "bad timestamp '1000000000000000000'"),
    "empty field": (lambda L: _set_field(L, 49, 2, ""), 49, "bad POI ''"),
    "blank line in the C block": (lambda L: "\n".join(L[:50] + [""] + L[50:]) + "\n", 51,
                                  "expected a C record of 5 fields, got ''"),
    "non-UTF-8 byte": (lambda L: _set_field(L, 16, 1, "us\udce9r2"), 16,
                       "not UTF-8: byte 0xe9 at column 5"),
}


class TestCorpusFile:
    @pytest.mark.parametrize("edit, line, message", CORRUPTIONS.values(), ids=list(CORRUPTIONS))
    def test_corrupt_file_exits_2_naming_the_line(self, prepared_dir, tmp_path, capsys,
                                                  edit, line, message):
        path = prepared_dir / "corpus.tsv"
        text = edit(path.read_text(encoding="utf-8").split("\n")[:-1])
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert run("baselines", "--data", path, "--out", tmp_path / "bl") == 2
        err = capsys.readouterr().err
        assert f"{path}:{line}: " in err and message in err

    def test_crlf_and_cr_line_ends_load_to_the_same_columns(self, prepared_dir, tmp_path):
        path = prepared_dir / "corpus.tsv"
        lf = load_corpus(path)
        for end in (b"\r\n", b"\r"):
            other = tmp_path / "corpus.tsv"
            other.write_bytes(path.read_bytes().replace(b"\n", end))
            got = load_corpus(other)
            assert (got.window, got.corpus.user_ids) == (lf.window, lf.corpus.user_ids)
            assert got.corpus.poi_table.ids == lf.corpus.poi_table.ids
            pairs = [(got.split, lf.split),
                     (got.corpus.poi_table.lat, lf.corpus.poi_table.lat),
                     (got.corpus.poi_table.lon, lf.corpus.poi_table.lon)] + [
                (getattr(a, f.name), getattr(b, f.name))
                for a, b in ((got.corpus.checkins, lf.corpus.checkins), (got.samples, lf.samples))
                for f in dataclasses.fields(a)]
            assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in pairs)
            assert run("baselines", "--data", other, "--out", tmp_path / "bl") == 0

    def test_range_ends_are_accepted(self, prepared_dir, tmp_path):
        path = prepared_dir / "corpus.tsv"
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        _set_field(lines, 34, 4, -720)
        path.write_text(_set_field(lines, 35, 4, 840), encoding="utf-8")
        assert run("baselines", "--data", path, "--out", tmp_path / "bl") == 0

    def test_stddp1_file_asks_for_prepare(self, prepared_dir, tmp_path, capsys):
        path = prepared_dir / "corpus.tsv"
        path.write_text(path.read_text(encoding="utf-8").replace("STDDP2", "STDDP1", 1),
                        encoding="utf-8")
        assert run("baselines", "--data", path, "--out", tmp_path / "bl") == 2
        err = capsys.readouterr().err
        assert f"{path}:1: " in err and "re-run `bistddp prepare`" in err


def test_selfcheck_passes(capsys):
    assert run("selfcheck") == 0
    out = capsys.readouterr().out
    assert "PASS  distance rows match haversine_km  max rel err " in out
    assert "PASS  baseline count tables match a recount, heads in ranking order" in out
