import csv
import struct

import numpy as np
import pytest

from bistddp.cli import main
from bistddp.model import CHECKPOINT_MAGIC, load_checkpoint, save_checkpoint
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

    def test_everything_filtered_is_bad_input(self, tmp_path):
        lines = foursquare_lines(n_users=2, n_pois=4, checkins_per_user=10)
        raw = tmp_path / "tiny.tsv"
        raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run("prepare", "--data", raw, "--format", "foursquare",
                   "--out", tmp_path / "o") == 2  # default 10/10 kills it


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=3\nbogus_key=1\n", encoding="utf-8")
        assert run("selfcheck", "--config", cfg) == 2

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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_diverged_run_exits_1_without_artifacts(self, prepared_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert self.train(prepared_dir, out, extra=("--lr", 1e308, "--epochs", 3)) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "checkpoint.bin").exists()
        assert not (out / "train_log.csv").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_diverged_last_update_exits_1_without_artifacts(self, prepared_dir, tmp_path,
                                                            capsys):
        # one batch, one epoch: the loss is finite, only the update diverges
        out = tmp_path / "run"
        assert self.train(prepared_dir, out,
                          extra=("--lr", 1e308, "--epochs", 1, "--batch", 100000)) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "checkpoint.bin").exists()
        assert not (out / "train_log.csv").exists()

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

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_evaluate_non_finite_checkpoint_exits_1(self, prepared_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert self.train(prepared_dir, out) == 0
        params = load_checkpoint(out / "checkpoint.bin")
        params.out_weights[3, 0] = np.nan
        save_checkpoint(out / "checkpoint.bin", params)
        ev = tmp_path / "ev"
        assert run("evaluate", "--data", prepared_dir / "corpus.tsv",
                   "--checkpoint", out / "checkpoint.bin", "--out", ev) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not (ev / "report_test.csv").exists()

    def test_checkpoint_header_past_the_file_exits_2(self, prepared_dir, tmp_path, capsys):
        # a header claiming M = 4e9 would need 119 GiB of tensors
        ck = tmp_path / "huge.bin"
        ck.write_bytes(CHECKPOINT_MAGIC + struct.pack("<5I", 20, 4_000_000_000, 4, 6, 1)
                       + b"\0" * 64)
        assert run("evaluate", "--data", prepared_dir / "corpus.tsv",
                   "--checkpoint", ck, "--out", tmp_path / "ev") == 2
        assert "implies" in capsys.readouterr().err

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

    def test_resume_refuses_mismatched_shapes(self, prepared_dir, tmp_path):
        out = tmp_path / "run"
        assert self.train(prepared_dir, out) == 0
        # rebuild the corpus with w=2: different sample width, same data
        out2 = tmp_path / "w2"
        raw = prepared_dir / "corpus.tsv"
        assert run("prepare", "--data", raw.parent.parent / "raw.tsv", "--format",
                   "foursquare", "--out", out2, "--w", 2) == 0
        code = run("train", "--data", out2 / "corpus.tsv", "--out", tmp_path / "r2",
                   "--d", 4, "--h", 6, "--epochs", 1,
                   "--resume-from", out / "checkpoint.bin")
        assert code == 2

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

    def test_sweep_records_points_and_survives_failures(self, prepared_dir, tmp_path):
        out = tmp_path / "sw"
        assert run("sweep", "--data", prepared_dir / "corpus.tsv", "--out", out,
                   "--grid", "w=1,50", "--d", 3, "--h", 4, "--epochs", 1,
                   "--batch", 64) == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 2
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("error")

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
# Each edit returns the corrupted text; it is paired with the line at fault
# and a piece of the message.
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
    "C block out of user order": (lambda L: _set_field(L, 46, 1, "2"), 46, "user order"),
    "POI outside [0, M)": (lambda L: _set_field(L, 50, 2, "99999"), 50, "outside [0, 12)"),
    "timestamp out of range": (lambda L: _set_field(L, 60, 3, "-5"), 60, "outside [1970"),
    "tz out of range": (lambda L: _set_field(L, 61, 4, "900"), 61, "tz offset 900"),
    "time decreases within a user": (_earlier_than_previous, 36, "earlier"),
    "missing last line": (lambda L: "\n".join(L[:-1]) + "\n", 273, "file ends"),
    "extra line": (lambda L: "\n".join(L + [L[-1]]) + "\n", 274, "extra line"),
    "last line cut short": (lambda L: "\n".join(L)[:-3], 273, "no newline"),
}


class TestCorpusFile:
    @pytest.mark.parametrize("edit, line, message", CORRUPTIONS.values(), ids=list(CORRUPTIONS))
    def test_corrupt_file_exits_2_naming_the_line(self, prepared_dir, tmp_path, capsys,
                                                  edit, line, message):
        path = prepared_dir / "corpus.tsv"
        path.write_text(edit(path.read_text(encoding="utf-8").split("\n")[:-1]),
                        encoding="utf-8")
        assert run("baselines", "--data", path, "--out", tmp_path / "bl") == 2
        err = capsys.readouterr().err
        assert f"{path}:{line}: " in err and message in err

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


def test_selfcheck_passes():
    assert run("selfcheck") == 0
