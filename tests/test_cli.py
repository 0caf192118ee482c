import shutil

import numpy as np
import pytest

from time2box.cli import main
from time2box.training import load_checkpoint


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synth"
    code = main(
        [
            "gen-synthetic",
            "--out",
            str(out),
            "--seed",
            "3",
            "--entities",
            "25",
            "--relations",
            "3",
            "--axis-length",
            "15",
            "--rules",
            "30",
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_dir(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "base"
    code = main(
        [
            "train",
            "--data",
            str(dataset_dir),
            "--out",
            str(out),
            "--d",
            "8",
            "--k",
            "4",
            "--steps",
            "40",
            "--batch",
            "32",
            "--eval-every",
            "20",
            "--seed",
            "5",
            "--quiet",
        ]
    )
    assert code == 0
    return out


class TestStats:
    def test_layout_and_counts(self, dataset_dir, capsys):
        code, out, _ = run(capsys, "stats", dataset_dir)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("#entities\t25")
        assert lines[1].startswith("#relations\t3")
        assert lines[2].startswith("time period\t[1980,")
        rows = {tuple(l.split("\t")[:2]): l.split("\t")[2] for l in lines[3:]}
        n_train = sum(1 for _ in open(dataset_dir / "train.txt"))
        assert int(rows[("train", "#all")]) == n_train
        per_type = sum(
            int(rows[("train", name)])
            for name in (
                "#time instant",
                "#start time only",
                "#end time only",
                "#full time interval",
                "#no time",
            )
        )
        assert per_type == n_train

    def test_counts_match_manifest(self, dataset_dir, capsys):
        code, out, _ = run(capsys, "stats", dataset_dir)
        manifest = [l.split("\t") for l in open(dataset_dir / "manifest.tsv")]
        rows = {tuple(l.split("\t")[:2]): l.split("\t")[2] for l in out.splitlines()[3:]}
        for split in ("train", "valid", "test"):
            expected = sum(1 for row in manifest if row[5].strip() == split)
            assert int(rows[(split, "#all")]) == expected

    def test_empty_test_file(self, dataset_dir, tmp_path, capsys):
        import shutil

        clone = tmp_path / "clone"
        shutil.copytree(dataset_dir, clone)
        (clone / "test.txt").write_text("")
        code, out, _ = run(capsys, "stats", clone)
        assert code == 0
        rows = {tuple(l.split("\t")[:2]): l.split("\t")[2] for l in out.splitlines()[3:]}
        assert int(rows[("test", "#all")]) == 0

    def test_missing_dir_is_runtime_error(self, capsys):
        code, _, err = run(capsys, "stats", "/nonexistent/dir")
        assert code == 1
        assert "not found" in err


class TestGenSynthetic:
    def test_regeneration_is_byte_identical(self, tmp_path, capsys):
        args = ["gen-synthetic", "--seed", "9", "--entities", "20", "--relations", "3",
                "--axis-length", "12", "--rules", "20"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, *args, "--out", a)[0] == 0
        assert run(capsys, *args, "--out", b)[0] == 0
        for name in ("train.txt", "valid.txt", "test.txt", "manifest.tsv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_infeasible_config_fails(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "gen-synthetic", "--out", tmp_path / "x", "--entities", "3",
            "--relations", "2", "--rules", "50", "--axis-length", "10",
        )
        assert code == 1
        assert "capacity" in err

    @pytest.mark.parametrize("entities", [2, 3])
    def test_too_few_entities_named(self, entities, tmp_path, capsys):
        """Below 4 entities the object half cannot hold a two-object timeline."""
        out = tmp_path / "x"
        code, _, err = run(
            capsys, "gen-synthetic", "--out", out, "--entities", entities, "--rules", "1",
        )
        assert code == 1
        assert err == f"error: synthetic generation needs at least 4 entities, got {entities}\n"
        assert not out.exists()

    def test_four_entities_suffice(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "gen-synthetic", "--out", tmp_path / "x", "--entities", "4", "--rules", "1",
        )
        assert code == 0


class TestTrain:
    def test_writes_outputs(self, run_dir):
        assert (run_dir / "checkpoint.t2b").exists()
        assert (run_dir / "train.log").exists()
        assert (run_dir / "config.resolved").exists()
        log_lines = (run_dir / "train.log").read_text().splitlines()
        assert all(len(l.split("\t")) == 3 for l in log_lines)

    def test_seeded_training_byte_identical(self, dataset_dir, tmp_path, capsys):
        args = ["train", "--data", dataset_dir, "--d", "8", "--k", "4", "--steps", "30",
                "--batch", "16", "--eval-every", "15", "--seed", "1", "--quiet"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(capsys, *args, "--out", a)[0] == 0
        assert run(capsys, *args, "--out", b)[0] == 0
        assert (a / "checkpoint.t2b").read_bytes() == (b / "checkpoint.t2b").read_bytes()
        assert (a / "train.log").read_bytes() == (b / "train.log").read_bytes()

    def test_beta_adds_log_column(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "beta"
        code, _, _ = run(
            capsys, "train", "--data", dataset_dir, "--out", out, "--d", "8", "--k", "4",
            "--steps", "20", "--batch", "16", "--eval-every", "10", "--seed", "1",
            "--beta", "0.1", "--quiet",
        )
        assert code == 0
        log_lines = (out / "train.log").read_text().splitlines()
        assert all(len(l.split("\t")) == 4 for l in log_lines)

    def test_missing_data_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--out", tmp_path / "x", "--steps", "5")
        assert code == 2
        assert "--data" in err

    def test_unknown_variant_rejected(self, dataset_dir, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", "--data", dataset_dir, "--out", tmp_path / "v",
            "--variant", "rotate", "--steps", "5",
        )
        assert code == 1
        assert "unknown variant" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--eval-every", "0", "eval_every must be at least 1, got 0"),
            ("--d", "0", "d must be at least 1, got 0"),
            ("--steps", "-1", "steps must be at least 1, got -1"),
            ("--batch", "0", "batch must be at least 1, got 0"),
            ("--alpha", "2", "alpha must lie in [0, 1], got 2.0"),
            ("--gamma", "-5", "gamma must be finite and above 0, got -5.0"),
            ("--lr", "inf", "lr must be finite and above 0, got inf"),
            ("--beta", "-0.5", "beta must be finite and at least 0, got -0.5"),
            ("--seed", "-1", "seed must be at least 0, got -1"),
        ],
    )
    def test_bad_config_fails_before_loading(self, tmp_path, capsys, flag, value, message):
        """The data directory does not exist: the configuration is rejected
        before it is read, and nothing is written."""
        out = tmp_path / "run"
        code, _, err = run(
            capsys, "train", "--data", tmp_path / "no-data", "--out", out, flag, value
        )
        assert code == 1
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        """A typo is rejected before the data directory, which does not
        exist, is read, and nothing is written."""
        config = tmp_path / "run.cfg"
        config.write_text(f"data={tmp_path / 'no-data'}\neval-every=1\nlearning_rate=0.5\n")
        out = tmp_path / "run"
        code, _, err = run(capsys, "train", "--config", config, "--out", out)
        assert code == 2
        assert "'learning_rate'" in err
        assert "allowed keys: data, missing, d, k, m, lr," in err
        assert not out.exists()

    def test_other_command_snapshot_is_usage_error(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, err = run(capsys, "train", "--config", dataset_dir / "config.resolved", "--out", out)
        assert code == 2
        assert "gen-synthetic config, not a train config" in err
        assert not out.exists()

    def test_infeasible_negative_count_is_usage_error(self, tmp_path, capsys):
        """k plus a key's training objects exceed |E|: the run stops before
        it writes anything, instead of failing at its first sample."""
        data = tmp_path / "data"
        code, _, _ = run(
            capsys, "gen-synthetic", "--out", data, "--entities", "20", "--relations", "3",
            "--axis-length", "10", "--rules", "12",
        )
        assert code == 0
        out = tmp_path / "run"
        code, stdout, err = run(
            capsys, "train", "--data", data, "--out", out, "--k", "30", "--steps", "2", "--quiet"
        )
        assert code == 2
        assert stdout == ""
        assert err.startswith("usage error: cannot draw 30 negatives: only 20 entities and up to ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_config_snapshot_round_trip(self, dataset_dir, run_dir, tmp_path, capsys):
        out = tmp_path / "replay"
        code, _, _ = run(
            capsys, "train", "--config", run_dir / "config.resolved", "--out", out, "--quiet"
        )
        assert code == 0
        assert (out / "checkpoint.t2b").read_bytes() == (run_dir / "checkpoint.t2b").read_bytes()

    def test_cli_overrides_beat_config_file(self, dataset_dir, run_dir, tmp_path, capsys):
        out = tmp_path / "override"
        code, _, _ = run(
            capsys, "train", "--config", run_dir / "config.resolved", "--out", out,
            "--steps", "10", "--quiet",
        )
        assert code == 0
        snapshot = dict(
            line.split("=", 1) for line in (out / "config.resolved").read_text().splitlines()
        )
        assert snapshot["steps"] == "10"


class TestEval:
    def test_eval_link_writes_reports(self, dataset_dir, run_dir, tmp_path, capsys):
        out = tmp_path / "ev"
        code, stdout, _ = run(
            capsys, "eval-link", "--checkpoint", run_dir / "checkpoint.t2b",
            "--data", dataset_dir, "--out", out,
        )
        assert code == 0
        assert "MRR=" in stdout
        report = (out / "link_report.txt").read_text()
        assert "overall.mrr=" in report
        tsv = (out / "link_breakdown.tsv").read_text().splitlines()
        assert tsv[0].startswith("type\t")

    def test_filter_with_test_never_lowers_mrr(self, dataset_dir, run_dir, tmp_path, capsys):
        def mrr_of(filter_arg, out):
            code, stdout, _ = run(
                capsys, "eval-link", "--checkpoint", run_dir / "checkpoint.t2b",
                "--data", dataset_dir, "--out", out, "--filter", filter_arg,
            )
            assert code == 0
            return float(stdout.split("MRR=")[1].split()[0])

        base = mrr_of("train,valid", tmp_path / "f1")
        with_test = mrr_of("train,valid,test", tmp_path / "f2")
        assert with_test >= base

    @pytest.mark.parametrize("filter_arg", ["train,bogus", "bogus"])
    def test_unknown_filter_split_is_usage_error(
        self, filter_arg, dataset_dir, run_dir, tmp_path, capsys, monkeypatch
    ):
        from time2box import cli

        def no_load(path):
            raise AssertionError("checkpoint loaded before --filter was checked")

        monkeypatch.setattr(cli, "load_checkpoint", no_load)
        out = tmp_path / "ev"
        code, stdout, err = run(
            capsys, "eval-link", "--checkpoint", run_dir / "checkpoint.t2b",
            "--data", dataset_dir, "--out", out, "--filter", filter_arg,
        )
        assert code == 2
        assert stdout == ""
        assert "'bogus'" in err and "usage error" in err
        assert not out.exists()

    def test_empty_filter_ranks_unfiltered(self, dataset_dir, run_dir, tmp_path, capsys):
        out = tmp_path / "ev"
        code, stdout, _ = run(
            capsys, "eval-link", "--checkpoint", run_dir / "checkpoint.t2b",
            "--data", dataset_dir, "--out", out, "--filter", "",
        )
        assert code == 0
        assert (out / "link_report.txt").read_text().startswith("filter_splits=\n")

    def test_eval_time_writes_reports(self, dataset_dir, run_dir, tmp_path, capsys):
        out = tmp_path / "et"
        code, stdout, _ = run(
            capsys, "eval-time", "--checkpoint", run_dir / "checkpoint.t2b",
            "--data", dataset_dir, "--out", out, "--tau", "0.5",
        )
        assert code == 0
        assert "gaeiou@1=" in stdout
        lines = (out / "time_breakdown.tsv").read_text().splitlines()
        assert lines[0].startswith("bucket\t")

    @pytest.mark.parametrize(
        "flag", [("--k", "0"), ("--tau", "1.5"), ("--tau", "0")], ids=["k0", "tau1.5", "tau0"]
    )
    def test_eval_time_bad_k_or_tau_is_usage_error(
        self, flag, dataset_dir, run_dir, tmp_path, capsys, monkeypatch
    ):
        from time2box import cli

        def no_load(path):
            raise AssertionError("checkpoint loaded before --k and --tau were checked")

        monkeypatch.setattr(cli, "load_checkpoint", no_load)
        out = tmp_path / "et"
        code, stdout, err = run(
            capsys, "eval-time", "--checkpoint", run_dir / "checkpoint.t2b",
            "--data", dataset_dir, "--out", out, *flag,
        )
        assert code == 2
        assert stdout == ""
        assert f"{flag[0][2:]} must" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, test_lines, message",
        [
            ("eval-link", "", "test.txt has no statements to evaluate"),
            ("eval-time", "", "test.txt has no statement with an instant or closed scope to predict"),
            (
                "eval-time",
                "e00\trel0\te24\t-\t-\ne01\trel1\te23\t1990\t-\n",
                "test.txt has no statement with an instant or closed scope to predict",
            ),
        ],
        ids=["link-empty", "time-empty", "time-no-closed-gold"],
    )
    def test_nothing_to_evaluate_fails(
        self, command, test_lines, message, dataset_dir, run_dir, tmp_path, capsys
    ):
        import shutil

        clone = tmp_path / "clone"
        shutil.copytree(dataset_dir, clone)
        (clone / "test.txt").write_text(test_lines)
        out = tmp_path / "ev"
        code, stdout, err = run(
            capsys, command, "--checkpoint", run_dir / "checkpoint.t2b", "--data", clone,
            "--out", out,
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: the test split ") and err.endswith(message + "\n")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_dimension_mismatch_fails(self, dataset_dir, run_dir, tmp_path, capsys):
        other = tmp_path / "other"
        assert run(
            capsys, "gen-synthetic", "--out", other, "--seed", "2", "--entities", "12",
            "--relations", "3", "--axis-length", "15", "--rules", "10",
        )[0] == 0
        code, _, err = run(
            capsys, "eval-link", "--checkpoint", run_dir / "checkpoint.t2b",
            "--data", other, "--out", tmp_path / "x",
        )
        assert code == 1
        assert "mismatch" in err

    def test_nan_checkpoint_fails(self, dataset_dir, run_dir, tmp_path, capsys):
        blob = bytearray((run_dir / "checkpoint.t2b").read_bytes())
        blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        bad = tmp_path / "nan.t2b"
        bad.write_bytes(bytes(blob))
        code, _, err = run(
            capsys, "eval-link", "--checkpoint", bad,
            "--data", dataset_dir, "--out", tmp_path / "x",
        )
        assert code == 1
        assert "non-finite" in err

    @pytest.mark.parametrize(
        "case", ["eval-link", "eval-time", "predict-topk", "predict-interval"]
    )
    def test_nan_model_fails_instead_of_scoring(
        self, case, dataset_dir, run_dir, tmp_path, capsys, monkeypatch
    ):
        from time2box import cli

        def nan_model(path):
            params, variant = load_checkpoint(path)
            for arr in params.arrays.values():
                arr[:] = np.nan
            return params, variant

        command_args = {
            "eval-link": ["eval-link", "--out", tmp_path / "x"],
            "eval-time": ["eval-time", "--out", tmp_path / "x"],
            "predict-topk": ["predict", "-s", "e00", "-r", "rel0", "-t", "1985", "--topk", "3"],
            "predict-interval": ["predict", "-s", "e00", "-r", "rel0", "--interval", "1985:1985"],
        }[case]
        monkeypatch.setattr(cli, "load_checkpoint", nan_model)
        code, out, err = run(
            capsys, *command_args, "--checkpoint", run_dir / "checkpoint.t2b",
            "--data", dataset_dir,
        )
        assert code == 1
        assert "non-finite score" in err
        assert out == ""

    def test_seeded_eval_identical_reports(self, dataset_dir, run_dir, tmp_path, capsys):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run(
                capsys, "eval-time", "--checkpoint", run_dir / "checkpoint.t2b",
                "--data", dataset_dir, "--out", out, "--seed", "3",
            )[0] == 0
            outs.append((out / "time_report.txt").read_bytes())
        assert outs[0] == outs[1]


class TestPredict:
    def test_topk_rows_scores_nonincreasing(self, dataset_dir, run_dir, capsys):
        code, out, _ = run(
            capsys, "predict", "--checkpoint", run_dir / "checkpoint.t2b",
            "--data", dataset_dir, "-s", "e00", "-r", "rel0", "-t", "1985", "--topk", "10",
        )
        assert code == 0
        rows = [l.split("\t") for l in out.splitlines()[1:]]
        assert len(rows) == 10
        scores = [float(r[2]) for r in rows]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("topk", ["0", "-2"])
    def test_topk_below_one_is_usage_error(self, topk, dataset_dir, run_dir, capsys, monkeypatch):
        from time2box import cli

        def no_load(path):
            raise AssertionError("checkpoint loaded before --topk was checked")

        monkeypatch.setattr(cli, "load_checkpoint", no_load)
        code, out, err = run(
            capsys, "predict", "--checkpoint", run_dir / "checkpoint.t2b",
            "--data", dataset_dir, "-s", "e00", "-r", "rel0", "-t", "1985", "--topk", topk,
        )
        assert code == 2
        assert out == ""
        assert f"--topk must be at least 1, got {topk}" in err

    def test_interval_prints_per_year_timeline(self, dataset_dir, run_dir, capsys):
        code, out, _ = run(
            capsys, "predict", "--checkpoint", run_dir / "checkpoint.t2b",
            "--data", dataset_dir, "-s", "e00", "-r", "rel0", "--interval", "1982:1986",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 5
        assert rows[0].startswith("1982\t")

    def test_reversed_interval_is_usage_error(self, dataset_dir, run_dir, capsys):
        code, out, err = run(
            capsys, "predict", "--checkpoint", run_dir / "checkpoint.t2b",
            "--data", dataset_dir, "-s", "e00", "-r", "rel0", "--interval", "1986:1982",
        )
        assert code == 2
        assert out == ""
        assert "1986" in err and "1982" in err

    def test_unknown_label_named_in_error(self, dataset_dir, run_dir, capsys):
        code, _, err = run(
            capsys, "predict", "--checkpoint", run_dir / "checkpoint.t2b",
            "--data", dataset_dir, "-s", "nobody", "-r", "rel0", "-t", "1985",
        )
        assert code == 2
        assert "nobody" in err


class TestMetrics:
    def test_appends_three_columns(self, tmp_path, capsys):
        src = tmp_path / "in.tsv"
        src.write_text("2011\t2020\t1998\t2010\n2011\t2016\t2011\t2016\n2011\t2016\t2009\t2013\n")
        code, out, _ = run(capsys, "metrics", "--input", src)
        assert code == 0
        rows = [l.split("\t") for l in out.splitlines()]
        assert rows[0][4:] == ["0.000000", "0.043478", "0.021739"]
        assert rows[1][4:] == ["1.000000", "1.000000", "1.000000"]
        assert rows[2][4:] == ["0.375000", "0.375000", "0.375000"]

    def test_output_file(self, tmp_path, capsys):
        src = tmp_path / "in.tsv"
        src.write_text("0\t5\t2\t3\n")
        dst = tmp_path / "out.tsv"
        code, _, _ = run(capsys, "metrics", "--input", src, "--output", dst)
        assert code == 0
        assert dst.read_text().count("\t") == 6

    def test_bad_line_leaves_no_output(self, tmp_path, capsys):
        src = tmp_path / "in.tsv"
        src.write_text("0\t5\t2\t3\n5\t2\t0\t1\n")
        dst = tmp_path / "out" / "out.tsv"
        dst.parent.mkdir()
        code, out, err = run(capsys, "metrics", "--input", src, "--output", dst)
        assert code == 1
        assert "in.tsv:2: interval lo 5 > hi 2" in err
        assert list(dst.parent.iterdir()) == []
        code, out, _ = run(capsys, "metrics", "--input", src)
        assert code == 1 and out == ""

    def test_missing_input_leaves_no_output(self, tmp_path, capsys):
        dst = tmp_path / "out.tsv"
        code, _, err = run(capsys, "metrics", "--input", tmp_path / "absent.tsv", "--output", dst)
        assert code == 1
        assert "absent.tsv" in err
        assert not dst.exists()

    def test_reversed_interval_fails(self, tmp_path, capsys):
        src = tmp_path / "bad.tsv"
        src.write_text("5\t2\t0\t1\n")
        code, _, err = run(capsys, "metrics", "--input", src)
        assert code == 1
        assert "lo 5 > hi 2" in err

    def test_non_integer_fails(self, tmp_path, capsys):
        src = tmp_path / "bad.tsv"
        src.write_text("a\tb\tc\td\n")
        code, _, err = run(capsys, "metrics", "--input", src)
        assert code == 1
        assert "integer" in err


class TestExportEmbeddings:
    def test_entity_table(self, dataset_dir, run_dir, tmp_path, capsys):
        out = tmp_path / "emb.tsv"
        code, _, _ = run(
            capsys, "export-embeddings", "--checkpoint", run_dir / "checkpoint.t2b",
            "--data", dataset_dir, "--out", out,
        )
        assert code == 0
        rows = [l.split("\t") for l in out.read_text().splitlines()]
        assert len(rows) == 25
        assert all(len(r) == 1 + 8 for r in rows)
        assert {r[0] for r in rows} == {f"e{i:02d}" for i in range(25)}

    def test_time_table_uses_year_labels(self, dataset_dir, run_dir, tmp_path, capsys):
        out = tmp_path / "time.tsv"
        code, _, _ = run(
            capsys, "export-embeddings", "--checkpoint", run_dir / "checkpoint.t2b",
            "--data", dataset_dir, "--out", out, "--table", "time",
        )
        assert code == 0
        rows = [l.split("\t") for l in out.read_text().splitlines()]
        assert rows[0][0] == "1980"
        assert len(rows) == 15


def test_usage_error_exit_code_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval-link", "--data", "x"])  # missing required --checkpoint/--out
    assert exc.value.code == 2


def test_alternate_missing_sentinel(tmp_path, capsys):
    data = tmp_path / "alt"
    data.mkdir()
    (data / "train.txt").write_text("a\tr\tb\t####\t1999\nc\tr\td\t1990\t1995\n")
    (data / "valid.txt").write_text("")
    (data / "test.txt").write_text("")
    code, out, _ = run(capsys, "stats", data, "--missing", "####")
    assert code == 0
    rows = {tuple(l.split("\t")[:2]): l.split("\t")[2] for l in out.splitlines()[3:]}
    assert int(rows[("train", "#end time only")]) == 1


# ---------------------------------------------------------------------------
# fault matrix: each row is a bad input to one entry point and its exit code


def _with_line(data_dir, tmp_path, split, line):
    """A copy of the dataset with one line appended to a split; the line's
    number in that file."""
    clone = tmp_path / "data"
    shutil.copytree(data_dir, clone)
    path = clone / f"{split}.txt"
    n_lines = len(path.read_text().splitlines())
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return clone, n_lines + 1


def _bad_year(command, split, text):
    def build(data_dir, run_dir, tmp_path):
        data, line_no = _with_line(data_dir, tmp_path, split, f"e00\trel0\te01\t1985\t{text}")
        out = tmp_path / "out"
        argv = {
            "stats": ["stats", data],
            "train": ["train", "--data", data, "--out", out, "--steps", "2", "--quiet"],
            "eval-link": ["eval-link", "--checkpoint", run_dir / "checkpoint.t2b",
                          "--data", data, "--out", out],
            "eval-time": ["eval-time", "--checkpoint", run_dir / "checkpoint.t2b",
                          "--data", data, "--out", out],
        }[command]
        return argv, out, f"non-integer year {text!r} (line {line_no})"

    return build


def _few_entities(data_dir, run_dir, tmp_path):
    out = tmp_path / "out"
    argv = ["gen-synthetic", "--out", out, "--entities", "3", "--rules", "1"]
    return argv, out, "synthetic generation needs at least 4 entities, got 3"


def _unknown_train_key(data_dir, run_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(f"data={data_dir}\nlearning_rate=0.5\n")
    out = tmp_path / "out"
    return ["train", "--config", config, "--out", out], out, "unknown key(s) 'learning_rate'"


def _sampler_bound(data_dir, run_dir, tmp_path):
    out = tmp_path / "out"
    argv = ["train", "--data", data_dir, "--out", out, "--k", "30", "--steps", "2", "--quiet"]
    return argv, out, "cannot draw 30 negatives: only 25 entities"


def _empty_test(command):
    def build(data_dir, run_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        (data / "test.txt").write_text("")
        out = tmp_path / "out"
        argv = [command, "--checkpoint", run_dir / "checkpoint.t2b", "--data", data, "--out", out]
        return argv, out, f"the test split {data / 'test.txt'} has no statement"

    return build


FAULTS = [
    ("year-underscore", _bad_year("train", "train", "19_92"), 1),
    ("year-leading-space", _bad_year("stats", "valid", " 1992"), 1),
    ("year-trailing-space", _bad_year("eval-link", "test", "1992 "), 1),
    ("year-plus-sign", _bad_year("eval-time", "test", "+1992"), 1),
    ("year-non-ascii-digits", _bad_year("train", "valid", "\u0661\u0669\u0669\u0662"), 1),
    ("gen-synthetic-3-entities", _few_entities, 1),
    ("train-unknown-config-key", _unknown_train_key, 2),
    ("train-sampler-bound", _sampler_bound, 2),
    ("eval-link-empty-test", _empty_test("eval-link"), 1),
    ("eval-time-empty-test", _empty_test("eval-time"), 1),
]


@pytest.mark.parametrize("build, code", [row[1:] for row in FAULTS], ids=[row[0] for row in FAULTS])
def test_fault_matrix(build, code, dataset_dir, run_dir, tmp_path, capsys):
    """Every row exits with its code, prints one error line and nothing
    else, and writes no output."""
    argv, out, message = build(dataset_dir, run_dir, tmp_path)
    got, stdout, err = run(capsys, *argv)
    assert got == code
    assert stdout == ""
    assert err.startswith("error: " if code == 1 else "usage error: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()
