import re
import shutil
import struct
import warnings

import numpy as np
import pytest

from time2box.cli import load_kb, main
from time2box.data import MISSING, add_inverse_relations
from time2box.training import load_checkpoint


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_snapshot(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


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

    def test_diverging_run_prints_one_error_line(self, dataset_dir, tmp_path, capsys):
        """The overflow on the way to a non-finite loss raises no numpy
        warning: the run fails with one error line and writes no checkpoint,
        and config.resolved and train.log stay as its record."""
        out = tmp_path / "diverged"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(
                capsys, "train", "--data", dataset_dir, "--out", out, "--d", "8", "--k", "4",
                "--lr", "1e160", "--steps", "5", "--quiet",
            )
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (out / "checkpoint.t2b").exists()
        assert (out / "config.resolved").exists() and (out / "train.log").exists()

    def test_allocation_probe_covers_what_training_holds(
        self, dataset_dir, tmp_path, capsys, monkeypatch
    ):
        """The block train probes before writing is as large as the parameter
        tables plus Adam's m and v, which training holds from its first step."""
        from time2box import cli, training

        probed, held = [], []
        monkeypatch.setattr(cli, "_probe_allocation", lambda items, what: probed.append(items))
        step = training.Adam.step

        def counting_step(self, arrays, grads):
            step(self, arrays, grads)
            tables = (*arrays.values(), *self.m.values(), *self.v.values())
            held.append(sum(table.size for table in tables))

        monkeypatch.setattr(training.Adam, "step", counting_step)
        code, _, _ = run(capsys, "train", "--data", dataset_dir, "--out", tmp_path / "p",
                         "--d", "8", "--k", "4", "--batch", "16", "--steps", "2", "--quiet")
        assert code == 0
        assert probed == [16, held[0]] and held == [held[0]] * 2

    DIVERGING = ("--d", "8", "--k", "4", "--lr", "1e160", "--steps", "5", "--quiet")

    def test_diverging_validation_names_labels(self, dataset_dir, tmp_path, capsys):
        """A run whose validation scores turn NaN names the entity by id and
        label and the query by the dataset's labels and year."""
        code, _, err = run(capsys, "train", "--data", dataset_dir, "--out", tmp_path / "d",
                           *self.DIVERGING)
        assert code == 1
        found = re.fullmatch(
            r"error: validation at step 1: non-finite score \S+ for entity (\d+) \((\S+)\)"
            r" of query \((\S+), (\S+), (\S+)\)\n",
            err,
        )
        assert found, err
        e, label, s, r, year = found.groups()
        kb = add_inverse_relations(load_kb(dataset_dir, MISSING))
        assert kb.entities.labels[int(e)] == label
        assert s in kb.entities.labels and r in kb.relations.labels
        assert year == "-" or kb.axis.origin <= int(year) <= kb.axis.last_year

    def test_diverging_validation_keeps_loss_line(self, dataset_dir, tmp_path, capsys):
        """Validation at step 1 fails after a finite step-1 loss: train.log
        still holds that step's line, with a NaN MRR."""
        out = tmp_path / "d"
        code, _, err = run(capsys, "train", "--data", dataset_dir, "--out", out, *self.DIVERGING)
        assert code == 1 and "validation at step 1" in err
        (line,) = (out / "train.log").read_text().splitlines()
        step, loss, mrr = line.split("\t")
        assert step == "1" and np.isfinite(float(loss)) and mrr == "nan"

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

    def test_config_with_byte_order_mark_trains_alike(self, run_dir, tmp_path, capsys):
        config = tmp_path / "marked.cfg"
        config.write_text((run_dir / "config.resolved").read_text(), encoding="utf-8-sig")
        assert config.read_bytes().startswith(b"\xef\xbb\xbf")
        out = tmp_path / "replay"
        code, _, _ = run(capsys, "train", "--config", config, "--out", out, "--quiet")
        assert code == 0
        assert (out / "checkpoint.t2b").read_bytes() == (run_dir / "checkpoint.t2b").read_bytes()

    def test_cli_overrides_beat_config_file(self, dataset_dir, run_dir, tmp_path, capsys):
        out = tmp_path / "override"
        code, _, _ = run(
            capsys, "train", "--config", run_dir / "config.resolved", "--out", out,
            "--steps", "10", "--quiet",
        )
        assert code == 0
        assert read_snapshot(out / "config.resolved")["steps"] == "10"


class TestSnapshots:
    """Every file-producing command writes its parsed flags beside its
    outputs, under a name no other command writes."""

    def test_readme_sequence_keeps_train_snapshot(self, tmp_path, capsys):
        """Both evaluations write into the training directory, as in the
        README, and the training snapshot still reproduces the checkpoint."""
        data, base = tmp_path / "data", tmp_path / "base"
        code, _, _ = run(
            capsys, "gen-synthetic", "--out", data, "--seed", "3", "--entities", "25",
            "--relations", "3", "--axis-length", "15", "--rules", "30",
        )
        assert code == 0
        code, _, _ = run(
            capsys, "train", "--data", data, "--out", base, "--d", "8", "--k", "4",
            "--steps", "10", "--batch", "16", "--eval-every", "5", "--quiet",
        )
        assert code == 0
        ckpt = base / "checkpoint.t2b"
        for command in ("eval-link", "eval-time"):
            assert run(capsys, command, "--checkpoint", ckpt, "--data", data, "--out", base)[0] == 0
        replay = tmp_path / "replay"
        code, _, err = run(
            capsys, "train", "--config", base / "config.resolved", "--out", replay, "--quiet"
        )
        assert (code, err) == (0, "")
        assert (replay / "checkpoint.t2b").read_bytes() == ckpt.read_bytes()
        assert read_snapshot(base / "link_config.resolved")["command"] == "eval-link"
        assert read_snapshot(base / "time_config.resolved")["command"] == "eval-time"

    def test_eval_snapshots_record_missing(self, dataset_dir, run_dir, tmp_path, capsys):
        """A dataset whose open endpoints are written ##: both evaluation
        snapshots hold the sentinel they were run with."""
        data = tmp_path / "hash"
        data.mkdir()
        for split in ("train", "valid", "test"):
            lines = (dataset_dir / f"{split}.txt").read_text().splitlines()
            rows = [line.split("\t") for line in lines]
            text = "".join(
                "\t".join([*row[:3], *("##" if c == "-" else c for c in row[3:])]) + "\n"
                for row in rows
            )
            (data / f"{split}.txt").write_text(text)
        assert "##" in (data / "test.txt").read_text()
        out = tmp_path / "ev"
        for command in ("eval-link", "eval-time"):
            code, _, _ = run(
                capsys, command, "--checkpoint", run_dir / "checkpoint.t2b", "--data", data,
                "--out", out, "--missing", "##",
            )
            assert code == 0
        assert read_snapshot(out / "link_config.resolved") == {
            "checkpoint": str(run_dir / "checkpoint.t2b"), "command": "eval-link",
            "data": str(data), "filter": "train,valid", "missing": "##",
        }
        assert read_snapshot(out / "time_config.resolved") == {
            "checkpoint": str(run_dir / "checkpoint.t2b"), "command": "eval-time",
            "data": str(data), "k": "10", "missing": "##", "tau": "0.5",
        }

    def test_export_embeddings_snapshot(self, dataset_dir, run_dir, tmp_path, capsys):
        out = tmp_path / "emb.tsv"
        code, _, _ = run(
            capsys, "export-embeddings", "--checkpoint", run_dir / "checkpoint.t2b",
            "--data", dataset_dir, "--out", out, "--table", "relation",
        )
        assert code == 0
        assert read_snapshot(tmp_path / "emb.tsv.resolved") == {
            "checkpoint": str(run_dir / "checkpoint.t2b"), "command": "export-embeddings",
            "data": str(dataset_dir), "missing": "-", "table": "relation",
        }

    def test_metrics_snapshot_beside_its_output(self, tmp_path, capsys):
        """metrics --output F writes F.resolved, not a config.resolved that
        would replace a training snapshot in F's directory."""
        src, dst = tmp_path / "in.tsv", tmp_path / "out.tsv"
        src.write_text("0\t5\t2\t3\n")
        assert run(capsys, "metrics", "--input", src, "--output", dst)[0] == 0
        assert read_snapshot(tmp_path / "out.tsv.resolved") == {
            "command": "metrics", "input": str(src), "output": str(dst),
        }
        assert not (tmp_path / "config.resolved").exists()


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

    def test_nan_in_a_later_interval_year_names_its_entity(
        self, dataset_dir, run_dir, capsys, monkeypatch
    ):
        """The timeline is scored as one (years, entities) array; a NaN year
        after the first still names its first entity (in vocabulary order),
        not the entity at a flat index."""
        from time2box import cli

        kb = cli.load_kb(str(dataset_dir), cli.MISSING)
        row, first = kb.axis.index_of(1986), kb.entities.labels[0]

        def nan_second_year(path):
            params, variant = load_checkpoint(path)
            params.arrays["time_emb"][row] = np.nan
            return params, variant

        monkeypatch.setattr(cli, "load_checkpoint", nan_second_year)
        code, out, err = run(
            capsys, "predict", "-s", "e00", "-r", "rel0", "--interval", "1985:1987",
            "--checkpoint", run_dir / "checkpoint.t2b", "--data", dataset_dir,
        )
        assert code == 1
        assert err == f"error: non-finite score nan for entity {first}\n"
        assert out == ""

    def test_eval_time_builds_forward_statements_only(
        self, dataset_dir, run_dir, tmp_path, capsys, monkeypatch
    ):
        """eval-time picks the forward rows from the test split's relation
        column and builds a statement for those alone, once each; its outputs
        are those of evaluating the forward statements of the whole split."""
        from time2box.data import Statements
        from time2box.evaluation import eval_time_prediction

        params, variant = load_checkpoint(str(run_dir / "checkpoint.t2b"))
        kb = add_inverse_relations(load_kb(str(dataset_dir), MISSING))
        forward = [s for s in kb.splits["test"] if s.r < kb.n_base_relations]
        want = eval_time_prediction(forward, params, kb, variant)
        built, iterate = [], Statements.__iter__

        def counting(split):
            for stmt in iterate(split):
                built.append(stmt)
                yield stmt

        def indexing(split, i):
            raise AssertionError("eval-time indexed a split")

        monkeypatch.setattr(Statements, "__iter__", counting)
        monkeypatch.setattr(Statements, "__getitem__", indexing)
        out = tmp_path / "et"
        code, _, _ = run(
            capsys, "eval-time", "--checkpoint", run_dir / "checkpoint.t2b",
            "--data", dataset_dir, "--out", out, "--tau", "0.5",
        )
        assert code == 0
        assert built == forward
        assert (out / "time_report.txt").read_text() == want.to_text()
        assert (out / "time_breakdown.tsv").read_text() == want.breakdown_tsv()

    def test_seeded_eval_identical_reports(self, dataset_dir, run_dir, tmp_path, capsys):
        """eval-time draws nothing at random: the seeded training run's
        checkpoint fixes its report."""
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run(
                capsys, "eval-time", "--checkpoint", run_dir / "checkpoint.t2b",
                "--data", dataset_dir, "--out", out,
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

    def test_interval_with_negative_start_takes_a_space(self, dataset_dir, run_dir, capsys):
        # "-5:1985" is no plain negative number, so argparse alone reads it as a flag
        argv = ["predict", "--checkpoint", run_dir / "checkpoint.t2b",
                "--data", dataset_dir, "-s", "e00", "-r", "rel0"]
        code, out, err = run(capsys, *argv, "--interval", "-5:1985")
        assert (code, err) == (0, "")
        assert run(capsys, *argv, "--interval=-5:1985") == (0, out, "")
        rows = out.splitlines()[1:]
        assert rows[0].startswith("1980\t") and rows[-1].startswith("1985\t")

    def test_abbreviated_interval_takes_a_negative_start(self, dataset_dir, run_dir, capsys):
        argv = ["predict", "--checkpoint", run_dir / "checkpoint.t2b",
                "--data", dataset_dir, "-s", "e00", "-r", "rel0"]
        code, out, err = run(capsys, *argv, "--interval=-5:1985")
        assert (code, err) == (0, "")
        for flag in ("--i", "--inter", "--interva"):
            assert run(capsys, *argv, flag, "-5:1985") == (0, out, ""), flag
            assert run(capsys, *argv, f"{flag}=-5:1985") == (0, out, ""), flag

    def test_every_prefix_from_i_names_interval_alone(self):
        """_attach_interval joins a value to any prefix of --interval from
        --i on, so argparse must resolve each to --interval among predict's
        flags; other commands' tokens are left as they are."""
        from time2box.cli import _attach_interval, build_parser

        parser = build_parser()
        base = ["predict", "--checkpoint", "c", "--data", "d", "-s", "e", "-r", "r"]
        for end in range(3, len("--interval") + 1):
            flag = "--interval"[:end]
            assert _attach_interval([*base, flag, "-5:1985"]) == [*base, f"{flag}=-5:1985"]
            assert parser.parse_args([*base, f"{flag}=-5:1985"]).interval == (-5, 1985)
        assert _attach_interval([*base, "--", "-5:1985"]) == [*base, "--", "-5:1985"]
        assert _attach_interval(["metrics", "--in", "-5:1985"]) == ["metrics", "--in", "-5:1985"]

    def test_label_starting_with_dash_takes_the_equals_form(
        self, dataset_dir, run_dir, tmp_path, capsys
    ):
        """An entity label that starts with "-" is read as a flag after a
        space; `-s=-x` passes it. The copy renames e00 to -x, so its ids and
        the checkpoint's table stay those of the original."""
        renamed = tmp_path / "renamed"
        renamed.mkdir()
        for sp in ("train", "valid", "test"):
            lines = (dataset_dir / f"{sp}.txt").read_text().splitlines()
            rows = ("\t".join("-x" if f == "e00" else f for f in ln.split("\t")) for ln in lines)
            (renamed / f"{sp}.txt").write_text("".join(row + "\n" for row in rows))
        tail = ["-r", "rel0", "--interval", "1982:1986"]
        code, want, _ = run(
            capsys, "predict", "--checkpoint", run_dir / "checkpoint.t2b",
            "--data", dataset_dir, "-s", "e00", *tail,
        )
        assert code == 0
        model = ["predict", "--checkpoint", run_dir / "checkpoint.t2b", "--data", renamed]
        with pytest.raises(SystemExit) as exc:
            run(capsys, *model, "-s", "-x", *tail)
        assert exc.value.code == 2
        assert "-s/--subject: expected one argument" in capsys.readouterr().err
        assert run(capsys, *model, "-s=-x", *tail) == (0, want.replace("e00", "-x"), "")

    def test_reversed_negative_interval_is_usage_error(self, dataset_dir, run_dir, capsys):
        code, out, err = run(
            capsys, "predict", "--checkpoint", run_dir / "checkpoint.t2b",
            "--data", dataset_dir, "-s", "e00", "-r", "rel0", "--interval", "-1:-5",
        )
        assert code == 2
        assert out == ""
        assert "--interval start -1 is after its end -5" in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("-t", "19_85"),
            ("-t", "+1985"),
            ("-t", " 1985"),
            ("--interval", "19_82:1986"),
            ("--interval", "+1982:1986"),
            ("--interval", "1982: 1986"),
            ("--interval", "1982:1984:1986"),
        ],
    )
    def test_malformed_year_flag_is_usage_error(self, flag, value, dataset_dir, run_dir, capsys):
        # a year flag takes an optional "-" and ASCII digits, as year columns do
        argv = ["predict", "--checkpoint", run_dir / "checkpoint.t2b", "--data", dataset_dir,
                "-s", "e00", "-r", "rel0", flag, value]
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(value) in captured.err

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

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        text = "2011\t2020\t1998\t2010\n2011\t2016\t2009\t2013\n"
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert run(capsys, "metrics", "--input", marked) == run(capsys, "metrics", "--input", plain)


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
        return argv, out, f"{data / f'{split}.txt'}:{line_no}: non-integer year {text!r}"

    return build


def _non_utf8_byte(data_dir, run_dir, tmp_path):
    """stats on a dataset whose test split ends with a line holding the
    byte 0xff, which is not UTF-8."""
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    path = data / "test.txt"
    line_no = len(path.read_text().splitlines()) + 1
    with open(path, "ab") as fh:
        fh.write(b"e00\trel0\te\xff01\t1985\t1990\n")
    return ["stats", data], tmp_path / "out", f"{path}:{line_no}: byte 0xff is not UTF-8"


def _metrics_non_utf8_byte(data_dir, run_dir, tmp_path):
    src = tmp_path / "in.tsv"
    src.write_bytes(b"1990\t1995\t1991\t1994\n1990\t1995\t19\xff93\t1994\n")
    out = tmp_path / "out.tsv"
    argv = ["metrics", "--input", src, "--output", out]
    return argv, out, f"{src}:2: byte 0xff is not UTF-8"


def _train_config_non_utf8_byte(data_dir, run_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_bytes(f"data={data_dir}\n".encode() + b"steps=2\xff\n")
    out = tmp_path / "out"
    return ["train", "--config", config, "--out", out], out, f"{config}:2: byte 0xff is not UTF-8"


def _metrics_bad_column(text):
    def build(data_dir, run_dir, tmp_path):
        src = tmp_path / "in.tsv"
        src.write_text(f"1990\t1995\t1991\t1994\n{text}\t1995\t1993\t1994\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        argv = ["metrics", "--input", src, "--output", out]
        return argv, out, f"{src}:2: expected 4 integer columns"

    return build


#: header doubles out of range: (byte offset, value, message); gamma is at
#: byte 24 and alpha at byte 32
HEADER_FLOAT_FAULTS = {
    "gamma-0": (24, 0.0, "bad checkpoint header: gamma 0.0 is not finite and above 0"),
    "gamma-inf": (24, float("inf"), "bad checkpoint header: gamma inf is not finite and above 0"),
    "alpha-nan": (32, float("nan"), "bad checkpoint header: alpha nan is outside [0, 1]"),
    "alpha-below-0": (32, -1e-9, "bad checkpoint header: alpha -1e-09 is outside [0, 1]"),
    "alpha-above-1": (32, 1.0000001, "bad checkpoint header: alpha 1.0000001 is outside [0, 1]"),
}


def _bad_checkpoint(command, fault):
    """A copy of the trained checkpoint, cut short, with a NaN or +inf in
    its first block, or with |E| = 0, d = |E| = 2^31 - 1, variant code 99
    or a HEADER_FLOAT_FAULTS value in its header."""

    def build(data_dir, run_dir, tmp_path):
        blob = bytearray((run_dir / "checkpoint.t2b").read_bytes())
        header = struct.calcsize("<4s5i2d")
        if fault == "truncated":
            del blob[-10:]
            message = "truncated checkpoint: block w_ds_out incomplete"
        elif fault in ("nan-block", "inf-block"):
            blob[header : header + 4] = struct.pack("<f", float(fault.split("-")[0]))
            message = "non-finite values in checkpoint block entity_emb"
        elif fault in HEADER_FLOAT_FAULTS:
            offset, value, message = HEADER_FLOAT_FAULTS[fault]
            blob[offset : offset + 8] = struct.pack("<d", value)
        elif fault == "zero-entities":
            blob[8:12] = struct.pack("<i", 0)  # |E|, after the magic and d
            message = "bad checkpoint header: |E| is 0, below 1"
        elif fault == "huge-header":
            blob[4:12] = struct.pack("<2i", 2**31 - 1, 2**31 - 1)  # d and |E|
            message = "truncated checkpoint: block entity_emb incomplete"
        else:
            blob[20:24] = struct.pack("<i", 99)  # the variant code, after |T|
            message = "bad checkpoint header: variant code 99 is outside [0, 15]"
        ckpt = tmp_path / "model.t2b"
        ckpt.write_bytes(bytes(blob))
        out = tmp_path / "out"
        argv = [command, "--checkpoint", ckpt, "--data", data_dir]
        argv += ["-s", "e00", "-r", "rel0"] if command == "predict" else ["--out", out]
        return argv, out, message

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


def _unparsable_train_value(data_dir, run_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(f"data={data_dir}\nd=abc\n")
    out = tmp_path / "out"
    return ["train", "--config", config, "--out", out], out, f"{config}: d=abc: "


def _train_m_below_zero(data_dir, run_dir, tmp_path):
    out = tmp_path / "out"
    argv = ["train", "--data", data_dir, "--out", out, "--m", "-1", "--steps", "2", "--quiet"]
    return argv, out, "m must satisfy 0 <= m <= k"


def _batch_beyond_address_space(data_dir, run_dir, tmp_path):
    """A batch whose picks alone need 8 PB, beyond any address space, so
    the allocation fails at once."""
    out = tmp_path / "out"
    batch = "1000000000000000"
    argv = ["train", "--data", data_dir, "--out", out, "--batch", batch, "--steps", "1", "--quiet"]
    return argv, out, f"cannot allocate a batch of {batch} statements"


def _year_beyond_address_space(data_dir, run_dir, tmp_path):
    """A training year of 10^18 makes the time tables about 10^18 rows,
    beyond any address space, so their allocation fails at once."""
    data, _ = _with_line(data_dir, tmp_path, "train", "e00\trel0\te01\t1985\t1000000000000000000")
    out = tmp_path / "out"
    argv = ["train", "--data", data, "--out", out, "--steps", "1", "--quiet"]
    return argv, out, "cannot allocate the parameter tables for d="


def _sampler_bound(k):
    def build(data_dir, run_dir, tmp_path):
        out = tmp_path / "out"
        argv = ["train", "--data", data_dir, "--out", out, "--k", str(k), "--steps", "2", "--quiet"]
        return argv, out, f"cannot draw {k} negatives: only 25 entities"

    return build


def _tiny_kb(train_lines, message):
    """train on a dataset whose training split is train_lines and whose
    other splits are empty."""

    def build(data_dir, run_dir, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "train.txt").write_text("".join(line + "\n" for line in train_lines))
        (data / "valid.txt").write_text("")
        (data / "test.txt").write_text("")
        out = tmp_path / "out"
        return ["train", "--data", data, "--out", out, "--steps", "2", "--quiet"], out, message

    return build


def _empty_train(command):
    def build(data_dir, run_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        (data / "train.txt").write_text("")
        out = tmp_path / "out"
        argv = {
            "stats": ["stats", data],
            "train": ["train", "--data", data, "--out", out, "--steps", "2", "--quiet"],
            "eval-link": ["eval-link", "--checkpoint", run_dir / "checkpoint.t2b",
                          "--data", data, "--out", out],
        }[command]
        return argv, out, f"training split {data / 'train.txt'} is empty"

    return build


def _predict_reversed_interval(data_dir, run_dir, tmp_path):
    """The interval is checked before the checkpoint, which does not exist."""
    argv = ["predict", "--checkpoint", tmp_path / "absent.t2b", "--data", data_dir,
            "-s", "e00", "-r", "rel0", "--interval", "1995:1990"]
    return argv, tmp_path / "out", "--interval start 1995 is after its end 1990"


def _predict_time_and_interval(data_dir, run_dir, tmp_path):
    """-t and --interval are rejected before the checkpoint, which does not exist."""
    argv = ["predict", "--checkpoint", tmp_path / "absent.t2b", "--data", data_dir,
            "-s", "e00", "-r", "rel0", "-t", "1992", "--interval", "1990:1995"]
    return argv, tmp_path / "out", "-t/--time cannot be combined with --interval"


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
    ("stats-non-utf8-byte", _non_utf8_byte, 1),
    ("gen-synthetic-3-entities", _few_entities, 1),
    ("train-unknown-config-key", _unknown_train_key, 2),
    ("train-unparsable-config-value", _unparsable_train_value, 1),
    ("train-m-below-zero", _train_m_below_zero, 1),
    ("train-batch-beyond-address-space", _batch_beyond_address_space, 1),
    ("train-year-beyond-address-space", _year_beyond_address_space, 1),
    ("train-sampler-bound", _sampler_bound(30), 2),
    ("train-k-equals-entities", _sampler_bound(25), 2),
    ("train-one-entity", _tiny_kb(["a\tr\ta\t1990\t1995"], "only 1 entities"), 2),
    (
        "train-no-timed-statement",
        _tiny_kb(["a\tr\tb\t-\t-", "c\tr\td\t-\t-"], "training split has no temporal statements"),
        1,
    ),
    *(
        (f"{command}-empty-train", _empty_train(command), 1)
        for command in ("stats", "train", "eval-link")
    ),
    ("eval-link-empty-test", _empty_test("eval-link"), 1),
    ("eval-time-empty-test", _empty_test("eval-time"), 1),
    ("metrics-underscore", _metrics_bad_column("19_92"), 1),
    ("metrics-plus-sign", _metrics_bad_column("+1992"), 1),
    ("metrics-non-utf8-byte", _metrics_non_utf8_byte, 1),
    ("train-config-non-utf8-byte", _train_config_non_utf8_byte, 1),
    ("predict-reversed-interval-before-checkpoint", _predict_reversed_interval, 2),
    ("predict-time-and-interval-before-checkpoint", _predict_time_and_interval, 2),
    *(
        (f"{command}-{fault}-checkpoint", _bad_checkpoint(command, fault), 1)
        for command in ("eval-link", "eval-time", "predict")
        for fault in (
            "truncated", "nan-block", "inf-block", "zero-entities", "huge-header",
            "variant-code", *HEADER_FLOAT_FAULTS,
        )
    ),
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
