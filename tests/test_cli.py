import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from curvemorph import pipelines
from curvemorph.cli import main, read_landmark_csv, write_landmark_csv
from curvemorph.landmarks import LandmarkConfiguration
from curvemorph.simgen import SimConfig, generate_replicate


def small_dataset(seed=5, sizes=(5, 5, 5, 5), n_points=20):
    return generate_replicate(SimConfig(group_sizes=sizes, n_points=n_points, seed=seed), 0)


def write_dataset(path, configs):
    write_landmark_csv(Path(path), configs)


def hash_dir_csvs(path):
    digests = {}
    for p in sorted(Path(path).glob("*.csv")):
        digests[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return digests


class TestLandmarkCsv:
    def test_roundtrip(self, tmp_path):
        configs = small_dataset()
        path = tmp_path / "d.csv"
        write_dataset(path, configs)
        back = read_landmark_csv(path)
        assert len(back) == len(configs)
        for a, b in zip(configs, back):
            assert a.specimen_id == b.specimen_id
            assert a.label == b.label
            assert np.array_equal(a.points, b.points)  # 17 significant digits round-trip

    def test_bad_header_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert main(["run", "--data", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]) == 2

    def test_noncontiguous_indices_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "specimen_id,label,landmark_index,x,y,z\n"
            "s0,g,0,0,0,0\ns0,g,2,1,1,1\ns0,g,3,2,2,2\n"
        )
        assert main(["run", "--data", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_conflicting_labels_of_one_specimen_are_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "specimen_id,label,landmark_index,x,y,z\n"
            "s0,G1,0,0,0,0\ns0,G2,1,1,1,1\ns0,G2,2,2,2,2\n"
        )
        assert main(["run", "--data", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert f"{bad}:3: specimen s0: label 'G2' differs from 'G1'" in capsys.readouterr().err


class TestExitTail:
    """Both commands end alike: exit 3 when every task failed, 4 when some output was written."""

    @pytest.mark.parametrize(
        "command,message", [("run", "all pipelines failed"), ("classify", "all classification tasks failed")]
    )
    def test_every_task_failed(self, tmp_path, capsys, command, message):
        data = tmp_path / "tiny.csv"
        # run: 3 specimens (labels G1, G2, G2); classify: 4 (G1, G1, G2, G2), as a class needs 2 specimens.
        rows = slice(2, 5) if command == "run" else slice(1, 5)
        write_dataset(data, small_dataset(seed=1, sizes=(3, 3, 3, 3), n_points=10)[rows])
        out = tmp_path / "o"
        argv = [command, "--data", str(data), "--out", str(out), "--pipelines", "GM,FDM"]
        if command == "classify":
            argv += ["--classifiers", "lda,svm"]
        assert main(argv) == 3
        failures = json.loads((out / "manifest.json").read_text())["failures"]
        keys = ["tiny/GM", "tiny/FDM"] if command == "run" else ["tiny/GM/lda", "tiny/GM/svm", "tiny/FDM/lda", "tiny/FDM/svm"]
        assert [f.split(": ", 1)[0] for f in failures] == keys
        assert capsys.readouterr().err == f"{message}:\n  " + "\n  ".join(failures) + "\n"

    def test_some_task_failed(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        write_dataset(data / "a.csv", small_dataset(seed=1, sizes=(3, 3, 3, 3), n_points=10)[:3])
        write_dataset(data / "b.csv", small_dataset(seed=2, n_points=10))
        out = tmp_path / "o"
        assert main(["run", "--data", str(data), "--out", str(out), "--pipelines", "GM"]) == 4
        assert capsys.readouterr().err == "partial failure:\n  a/GM: GM: need at least 4 specimens\n"
        assert json.loads((out / "manifest.json").read_text())["failures"] == ["a/GM: GM: need at least 4 specimens"]


class TestSimulate:
    def test_n_reps_and_determinism(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--seed", "3", "--n-reps", "2", "--n-points", "12"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert len(list(out_a.glob("replicate_*.csv"))) == 2
        assert hash_dir_csvs(out_a) == hash_dir_csvs(out_b)
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["seed"] == 3

    def test_single_replicate(self, tmp_path):
        out = tmp_path / "one"
        assert main(["simulate", "--seed", "1", "--n-reps", "1", "--n-points", "10", "--out", str(out)]) == 0
        files = list(out.glob("replicate_*.csv"))
        assert len(files) == 1
        configs = read_landmark_csv(files[0])
        assert len(configs) == 200  # default group sizes

    def test_default_replicate_count(self, tmp_path):
        out = tmp_path / "default"
        assert main(["simulate", "--seed", "2", "--out", str(out)]) == 0
        files = list(out.glob("replicate_*.csv"))
        assert len(files) == 50
        assert len(read_landmark_csv(files[0])) == 200

    @pytest.mark.parametrize("flag,value", [("--n-points", "2"), ("--n-reps", "0"), ("--n-reps", "-1")])
    def test_invalid_setting_is_an_input_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "sim"
        assert main(["simulate", "--seed", "1", flag, value, "--out", str(out)]) == 2
        assert "input error" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    data = tmp / "replicate_000.csv"
    write_dataset(data, small_dataset())
    out = tmp / "out"
    code = main(["run", "--data", str(data), "--out", str(out), "--seed", "0", "--n-points", "20"])
    assert code == 0
    return out


class TestRun:
    def test_mse_has_one_row_per_pipeline(self, run_dir):
        with open(run_dir / "mse.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8

    def test_fdm_beats_gm_at_simulation_scale(self, tmp_path):
        data = tmp_path / "replicate_000.csv"
        write_dataset(data, generate_replicate(SimConfig(seed=12), 0))
        out = tmp_path / "out"
        assert main(["run", "--data", str(data), "--out", str(out), "--pipelines", "GM,FDM"]) == 0
        with open(out / "mse.csv") as fh:
            values = {r["pipeline"]: float(r["mean"]) for r in csv.DictReader(fh)}
        assert values["FDM"] < values["GM"]

    def test_k95_table(self, run_dir):
        with open(run_dir / "k95.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["pipeline"] for r in rows} == set(
            ["GM", "ArcGM", "FDM", "ArcFDM", "SoftSrvFdm", "ArcSoftSrvFdm", "ElasticSrvFdm", "ArcElasticSrvFdm"]
        )

    def test_scree_cumulative_reaches_one(self, run_dir):
        for path in run_dir.glob("scree_*.csv"):
            with open(path) as fh:
                rows = list(csv.DictReader(fh))
            assert float(rows[-1]["cumulative_fraction"]) == pytest.approx(1.0, abs=1e-9)

    def test_recon_tables_exist(self, run_dir):
        recon_files = list(run_dir.glob("recon_*.csv"))
        assert len(recon_files) == 8
        with open(recon_files[0]) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        assert set(rows[0]) == {"landmark_index", "orig_x", "orig_y", "orig_z", "recon_x", "recon_y", "recon_z"}

    @pytest.mark.parametrize("specimen", ["999", "-1"])
    def test_out_of_range_specimen_is_an_input_error(self, tmp_path, capsys, specimen):
        data = tmp_path / "replicate_000.csv"
        write_dataset(data, small_dataset())
        out = tmp_path / "out"
        assert main(["run", "--data", str(data), "--out", str(out), "--pipelines", "GM", "--specimen", specimen]) == 2
        assert f"specimen {specimen} out of range: replicate_000 has specimens 0..19" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_elastic_chains_run_on_a_five_point_grid(self, tmp_path):
        data = tmp_path / "replicate_000.csv"
        write_dataset(data, small_dataset(sizes=(4, 4, 4, 4), n_points=12))
        out = tmp_path / "out"
        args = ["run", "--data", str(data), "--out", str(out), "--pipelines", "ElasticSrvFdm,SoftSrvFdm",
                "--n-points", "5", "--n-basis", "4"]
        assert main(args) == 0
        with open(out / "mse.csv") as fh:
            assert [r["pipeline"] for r in csv.DictReader(fh)] == ["ElasticSrvFdm", "SoftSrvFdm"]

    def test_manifest_lists_outputs(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert "mse.csv" in manifest["outputs"]
        assert manifest["failures"] == []


class TestPreprocessCache:
    def test_warm_cache_gives_the_cold_cache_outputs(self, tmp_path):
        # The second run reads every specimen's grid points from the cache
        # the first run filled.
        data = tmp_path / "replicate_000.csv"
        write_dataset(data, small_dataset(seed=10, sizes=(4, 4, 4, 4), n_points=15))
        pipelines._grid_cache.clear()
        outs = []
        for run in ("cold", "warm"):
            out = tmp_path / run
            args = ["run", "--data", str(data), "--out", str(out), "--seed", "0",
                    "--n-points", "15", "--pipelines", "ArcGM,ArcFDM"]
            assert main(args) == 0
            outs.append(hash_dir_csvs(out))
        assert outs[0] == outs[1]


class TestInputErrorLeavesNoOutput:
    """Input is checked before the output directory is made (``simulate``: see TestSimulate)."""

    @pytest.mark.parametrize(
        "args,labelled",
        [(["run", "--specimen", "999"], True), (["run", "--pipelines", "nope"], True), (["classify"], False)],
        ids=["run-specimen", "run-pipelines", "classify-unlabelled"],
    )
    def test_no_directory_is_made(self, tmp_path, capsys, args, labelled):
        configs = small_dataset(seed=4, sizes=(3, 3, 3, 3), n_points=10)
        if not labelled:
            configs = [LandmarkConfiguration(c.specimen_id, c.points, None) for c in configs]
        data = tmp_path / "d.csv"
        write_dataset(data, configs)
        out = tmp_path / "o"
        assert main(args + ["--data", str(data), "--out", str(out)]) == 2
        assert "input error" in capsys.readouterr().err
        assert not out.exists()


class TestThreadsOptionRemoved:
    def test_flag_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--threads", "2", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_config_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads=2\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "unknown key 'threads'" in capsys.readouterr().err


class TestDegenerateCurve:
    def test_arc_chain_names_the_zero_length_specimen(self, tmp_path, capsys):
        # GPA rejects the zero-size specimen too, so the GM task of its
        # replicate fails on its own terms; replicate b holds no such specimen.
        configs = small_dataset(seed=6, sizes=(4, 4, 4, 4))
        bad = configs[7]
        configs[7] = LandmarkConfiguration(bad.specimen_id, np.full_like(bad.points, 0.25), bad.label)
        write_dataset(tmp_path / "a.csv", configs)
        write_dataset(tmp_path / "b.csv", small_dataset(seed=7, sizes=(4, 4, 4, 4)))
        out = tmp_path / "o"
        args = ["run", "--data", f"{tmp_path / 'a.csv'},{tmp_path / 'b.csv'}", "--out", str(out), "--pipelines", "ArcGM,GM"]
        assert main(args) == 4
        failures = json.loads((out / "manifest.json").read_text())["failures"]
        assert failures == [f"a/ArcGM: ArcGM: degenerate curve: specimen {bad.specimen_id}", "a/GM: GM: zero centroid size"]
        assert capsys.readouterr().err == "partial failure:\n  " + "\n  ".join(failures) + "\n"
        with open(out / "mse.csv") as fh:
            assert [r["pipeline"] for r in csv.DictReader(fh)] == ["ArcGM", "GM"]


@pytest.fixture
def arc_calls(monkeypatch):
    """The number of curves in each batched arc-length call the pipelines make, from an empty cache."""
    calls = []
    real = pipelines.reparameterise_arclength

    def counted(points, m):
        calls.append(len(points))
        return real(points, m)

    pipelines._grid_cache.clear()
    monkeypatch.setattr(pipelines, "reparameterise_arclength", counted)
    yield calls
    pipelines._grid_cache.clear()


class TestPreprocessOnce:
    def test_classify_reparameterises_each_specimen_once(self, tmp_path, arc_calls):
        configs = small_dataset(seed=11)
        data = tmp_path / "d.csv"
        write_dataset(data, configs)
        args = ["classify", "--data", str(data), "--out", str(tmp_path / "o"), "--seed", "0",
                "--pipelines", "ArcFDM", "--classifiers", "lda,multinomial,svm", "--svg"]
        assert main(args) == 0
        assert sum(arc_calls) == len(configs)

    def test_run_shares_the_arc_step_across_pipelines(self, tmp_path, arc_calls):
        configs = small_dataset(seed=11)
        data = tmp_path / "d.csv"
        write_dataset(data, configs)
        args = ["run", "--data", str(data), "--out", str(tmp_path / "o"), "--pipelines", "ArcGM,ArcFDM"]
        assert main(args) == 0
        assert arc_calls == [len(configs)]


@pytest.fixture(scope="module")
def classify_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("classify")
    data = tmp / "replicate_000.csv"
    write_dataset(data, small_dataset(seed=2, sizes=(5, 5, 5, 5), n_points=15))
    out = tmp / "out"
    code = main(["classify", "--data", str(data), "--out", str(out), "--seed", "0", "--n-points", "15"])
    assert code == 0
    return out


class TestClassify:
    def test_row_cardinality(self, classify_dir):
        with open(classify_dir / "cv_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8 * 3 * 5
        accs = [float(r["accuracy"]) for r in rows]
        assert all(0.0 <= a <= 1.0 for a in accs)

    def test_summary_table(self, classify_dir):
        with open(classify_dir / "cv_summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8 * 3

    def test_seeded_rerun_identical(self, classify_dir, tmp_path):
        data_src = classify_dir.parent / "replicate_000.csv"
        out = tmp_path / "again"
        code = main(
            ["classify", "--data", str(data_src), "--out", str(out), "--seed", "0", "--n-points", "15"]
        )
        assert code == 0
        assert hash_dir_csvs(classify_dir) == hash_dir_csvs(out)

    def test_label_file_mismatch_lists_ids(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        configs = small_dataset(seed=3, sizes=(3, 3, 3, 3), n_points=10)
        write_dataset(data, configs)
        labels = tmp_path / "labels.csv"
        labels.write_text("specimen_id,label\n" + "\n".join(f"{c.specimen_id},x" for c in configs[:-2]) + "\n")
        code = main(["classify", "--data", str(data), "--labels", str(labels), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert configs[-1].specimen_id in err

    def test_short_label_row_is_an_input_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        configs = small_dataset(seed=3, sizes=(3, 3, 3, 3), n_points=10)
        write_dataset(data, configs)
        labels = tmp_path / "labels.csv"
        labels.write_text(f"specimen_id,label\n{configs[0].specimen_id}\n")
        code = main(["classify", "--data", str(data), "--labels", str(labels), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{labels}:2: expected 2 fields" in capsys.readouterr().err

    def test_specimen_labelled_twice_is_an_input_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        configs = small_dataset(seed=3, sizes=(3, 3, 3, 3), n_points=10)
        write_dataset(data, configs)
        labels = tmp_path / "labels.csv"
        rows = [f"{c.specimen_id},x" for c in configs] + [f"{configs[0].specimen_id},y"]
        labels.write_text("specimen_id,label\n" + "\n".join(rows) + "\n")
        code = main(["classify", "--data", str(data), "--labels", str(labels), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{labels}:{len(configs) + 2}: specimen {configs[0].specimen_id} listed twice" in capsys.readouterr().err

    def test_one_class_replicate_is_an_input_error(self, tmp_path, capsys):
        configs = [LandmarkConfiguration(c.specimen_id, c.points, "A") for c in small_dataset(seed=2, sizes=(3, 3, 3, 3))]
        data = tmp_path / "d.csv"
        write_dataset(data, configs)
        out = tmp_path / "o"
        assert main(["classify", "--data", str(data), "--out", str(out), "--pipelines", "GM,FDM"]) == 2
        assert "d: all specimens share one label" in capsys.readouterr().err
        assert not out.exists()

    def test_one_specimen_class_is_an_input_error(self, tmp_path, capsys):
        configs = small_dataset(seed=2, sizes=(3, 3, 3, 3), n_points=12)
        configs = [LandmarkConfiguration(c.specimen_id, c.points, "B" if i == 4 else "A") for i, c in enumerate(configs)]
        data = tmp_path / "d.csv"
        write_dataset(data, configs)
        out = tmp_path / "o"
        assert main(["classify", "--data", str(data), "--out", str(out), "--pipelines", "GM,FDM"]) == 2
        assert "d: label 'B' has 1 specimen; cross validation needs at least 2 specimens per class" in capsys.readouterr().err
        assert not out.exists()

    def test_svg_emission(self, tmp_path):
        data = tmp_path / "d.csv"
        write_dataset(data, small_dataset(seed=4, sizes=(5, 5, 5, 5), n_points=15))
        out = tmp_path / "o"
        code = main(
            [
                "classify", "--data", str(data), "--out", str(out), "--seed", "0",
                "--n-points", "15", "--pipelines", "FDM", "--classifiers", "lda", "--svg",
            ]
        )
        assert code == 0
        svg = out / "pc_pairs_FDM.svg"
        assert svg.is_file() and svg.read_text().startswith("<svg")
        assert (out / "pc_pairs_FDM.csv").is_file()

    def test_svg_survives_a_failed_first_task(self, tmp_path):
        # LDA fails on the 2-specimen class; the SVGs need only a refit per pipeline.
        data = tmp_path / "d.csv"
        write_dataset(data, small_dataset(seed=4, sizes=(2, 6, 6, 6), n_points=15))
        out = tmp_path / "o"
        code = main(
            [
                "classify", "--data", str(data), "--out", str(out),
                "--pipelines", "GM,FDM", "--classifiers", "lda,svm", "--svg",
            ]
        )
        assert code == 4
        assert (out / "pc_pairs_GM.svg").is_file() and (out / "pc_pairs_FDM.svg").is_file()

    @pytest.mark.parametrize(
        "args",
        [["run", "--pipelines", ","], ["classify", "--pipelines", ",", "--svg"], ["classify", "--classifiers", ","]],
    )
    def test_empty_name_list_is_an_input_error(self, tmp_path, capsys, args):
        data = tmp_path / "d.csv"
        write_dataset(data, small_dataset(seed=3, sizes=(3, 3, 3, 3), n_points=10))
        assert main(args + ["--data", str(data), "--out", str(tmp_path / "o")]) == 2
        assert "input error" in capsys.readouterr().err

    def test_spaces_around_names_are_ignored(self, tmp_path):
        data = tmp_path / "d.csv"
        write_dataset(data, small_dataset(seed=3, sizes=(3, 3, 3, 3), n_points=10))
        out = tmp_path / "o"
        assert main(["run", "--data", str(data), "--out", str(out), "--pipelines", "GM, FDM", "--n-points", "10"]) == 0
        with open(out / "mse.csv") as fh:
            assert [r["pipeline"] for r in csv.DictReader(fh)] == ["GM", "FDM"]


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        data = tmp_path / "d.csv"
        write_dataset(data, small_dataset(seed=6, sizes=(4, 4, 4, 4), n_points=12))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data={data}\nseed=7\npipelines=GM\nn_points=12\nout={tmp_path / 'cfg_out'}\n")
        out = tmp_path / "flag_out"
        code = main(["run", "--config", str(cfg), "--out", str(out), "--pipelines", "GM,FDM"])
        assert code == 0
        with open(out / "mse.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["pipeline"] for r in rows} == {"GM", "FDM"}

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key,value", [("n_points", "2"), ("variance_threshold", "1.5")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_invalid_setting_is_an_input_error(self, tmp_path, capsys, key, value, source):
        data = tmp_path / "d.csv"
        write_dataset(data, small_dataset(seed=3, sizes=(3, 3, 3, 3), n_points=10))
        args = ["run", "--data", str(data), "--out", str(tmp_path / "o"), "--pipelines", "GM"]
        if source == "flag":
            args += ["--" + key.replace("_", "-"), value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={value}\n")
            args += ["--config", str(cfg)]
        assert main(args) == 2
        assert "input error" in capsys.readouterr().err

    def test_report_prints_tables(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_dataset(data, small_dataset(seed=8, sizes=(4, 4, 4, 4), n_points=12))
        out = tmp_path / "o"
        assert main(["run", "--data", str(data), "--out", str(out), "--pipelines", "GM,FDM", "--n-points", "12"]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        shown = capsys.readouterr().out
        assert "mse.csv" in shown and "GM" in shown
