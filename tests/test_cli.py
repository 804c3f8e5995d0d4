import csv
import dataclasses
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvemorph import classify, cli, pipelines, srvf
from curvemorph.cli import (
    InputError,
    LANDMARK_HEADER,
    apply_labels,
    main,
    read_config_file,
    read_labels_csv,
    read_landmark_csv,
    write_landmark_csv,
)
from curvemorph.landmarks import LandmarkConfiguration
from curvemorph.pipelines import PIPELINE_IDS
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

    def test_a_bad_row_is_reported_before_an_undecodable_byte_further_on(self, tmp_path):
        """The file is read as it streams, so the first fault in reading order is the one reported."""
        bad = tmp_path / "bad.csv"
        rows = "".join(f"s{i},g,0,0,0,0\n" for i in range(10_000))  # far beyond one decoding chunk
        bad.write_bytes(f"{','.join(LANDMARK_HEADER)}\ns0,g,0,0,0,0\ns0,g,one,1,1,1\n{rows}".encode() + b"\xff\n")
        with pytest.raises(InputError, match=f"^{re.escape(str(bad))}:3: invalid literal for int"):
            read_landmark_csv(bad)
        bad.write_bytes(bad.read_bytes().replace(b"one", b"1"))
        with pytest.raises(InputError, match=f"^cannot read {re.escape(str(bad))}: 'utf-8' codec"):
            read_landmark_csv(bad)


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
        assert capsys.readouterr().err == "partial failure:\n  a/GM: need at least 4 specimens\n"
        assert json.loads((out / "manifest.json").read_text())["failures"] == ["a/GM: need at least 4 specimens"]


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

    def test_unconverged_karcher_means_are_warned_in_manifest_and_report(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.csv"
        write_dataset(data, small_dataset(seed=4, sizes=(3, 3, 3, 3), n_points=15))
        args = ["run", "--data", str(data), "--pipelines", "GM,ElasticSrvFdm,SoftSrvFdm", "--n-points", "15"]
        assert main(args + ["--out", str(tmp_path / "converged")]) == 0
        assert json.loads((tmp_path / "converged" / "manifest.json").read_text())["warnings"] == []
        capsys.readouterr()
        monkeypatch.setattr(srvf, "_KARCHER_MAX_ITER", 2)
        out = tmp_path / "capped"
        assert main(args + ["--out", str(out)]) == 0
        warnings = [f"d/{pid}: Karcher mean stopped at 2 iterations without converging" for pid in ("ElasticSrvFdm", "SoftSrvFdm")]
        assert json.loads((out / "manifest.json").read_text())["warnings"] == warnings
        assert "warnings:\n  " + "\n  ".join(warnings) in capsys.readouterr().err
        assert main(["report", "--out", str(out)]) == 0
        assert "\nwarnings:\n  " + "\n  ".join(warnings) + "\n" in capsys.readouterr().out

    def test_variance_threshold_one_keeps_every_component(self, tmp_path):
        # The last cumulative fraction of a spectrum can round below 1; the
        # component count must still stay within the spectrum.
        data = tmp_path / "d.csv"
        write_dataset(data, small_dataset(seed=1, sizes=(5, 5, 5, 5), n_points=20))
        out = tmp_path / "out"
        args = ["run", "--data", str(data), "--out", str(out), "--pipelines", "all", "--n-points", "20", "--variance-threshold", "1"]
        assert main(args) == 0
        with open(out / "k95.csv", newline="") as fh:
            k95 = {row["pipeline"]: float(row["k95"]) for row in csv.DictReader(fh)}
        assert sorted(k95) == sorted(PIPELINE_IDS)
        for pid, k in k95.items():
            with open(out / f"scree_{pid}.csv", newline="") as fh:
                assert 1 <= k <= sum(1 for _ in csv.DictReader(fh))


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

    @pytest.mark.parametrize("reader", ["data", "labels", "config"])
    def test_non_utf8_file_is_an_input_error(self, tmp_path, capsys, reader):
        configs = small_dataset(seed=4, sizes=(3, 3, 3, 3), n_points=10)
        files = {"data": tmp_path / "d.csv", "labels": tmp_path / "labels.csv", "config": tmp_path / "c.cfg"}
        write_dataset(files["data"], configs)
        files["labels"].write_text("specimen_id,label\n" + "".join(f"{c.specimen_id},{c.label}\n" for c in configs))
        files["config"].write_text("seed=0\n")
        files[reader].write_bytes(files[reader].read_bytes() + b"\xff\n")
        out = tmp_path / "o"
        args = ["classify", "--out", str(out), "--pipelines", "GM", "--classifiers", "lda"]
        assert main(args + [arg for key, path in files.items() for arg in (f"--{key}", str(path))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: cannot read ") and str(files[reader]) in err and "0xff" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "classify"])
    @pytest.mark.parametrize("layout", ["two-directories", "same-file", "directory-and-glob"])
    def test_repeated_replicate_name(self, tmp_path, capsys, command, layout):
        """Results are keyed by file stem, so two files of one stem would overwrite each other's."""
        for sub, seed in (("a", 4), ("b", 5)):
            (tmp_path / sub).mkdir()
            write_dataset(tmp_path / sub / "x.csv", small_dataset(seed=seed, sizes=(3, 3, 3, 3), n_points=10))
        first, second = {
            "two-directories": (tmp_path / "a" / "x.csv", tmp_path / "b" / "x.csv"),
            "same-file": (tmp_path / "a" / "x.csv", tmp_path / "a" / "x.csv"),
            "directory-and-glob": (tmp_path / "a", tmp_path / "a" / "*.csv"),
        }[layout]
        out = tmp_path / "o"
        assert main([command, "--data", f"{first},{second}", "--out", str(out), "--pipelines", "GM"]) == 2
        err = capsys.readouterr().err
        assert "replicate name 'x' given twice" in err
        assert err.count(str(tmp_path / "a" / "x.csv")) + err.count(str(tmp_path / "b" / "x.csv")) == 2
        assert not out.exists()


def _csv_bytes(rows):
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue().encode()


@st.composite
def landmark_inputs(draw):
    """Landmark and label CSV bytes from random rows: valid, or broken in one of the ways the readers must catch."""
    n_specimens = draw(st.integers(1, 10))
    n_landmarks = draw(st.integers(3, 5))
    number = st.floats(-10.0, 10.0, allow_nan=False).map(repr)
    rows = [
        [f"s{i}", "AB"[i % 2], str(j), draw(number), draw(number), draw(number)]
        for i in range(n_specimens)
        for j in range(n_landmarks)
    ]
    at = draw(st.integers(0, len(rows) - 1))
    fault = draw(
        st.sampled_from(
            [None, None, "header", "fields", "cell", "non-finite", "index", "label", "unlabelled", "empty", "bytes", "not-utf8"]
        )
    )
    if fault == "fields":
        rows[at] = rows[at][:-1] if draw(st.booleans()) else rows[at] + ["0"]
    elif fault == "cell":
        rows[at][draw(st.integers(2, 5))] = draw(st.sampled_from(["abc", "", "1,5", "0x1"]))
    elif fault == "non-finite":
        rows[at][draw(st.integers(3, 5))] = draw(st.sampled_from(["nan", "inf", "-inf", "1e400"]))
    elif fault == "index":  # repeated, gapped or negative landmark_index
        rows[at][2] = str(draw(st.integers(-1, n_landmarks)))
    elif fault == "label":  # one row of a specimen carries another label
        rows[at][1] += "x"
    elif fault == "unlabelled":
        for row in rows:
            if row[0] == rows[at][0]:
                row[1] = ""
    header = LANDMARK_HEADER[::-1] if fault == "header" else LANDMARK_HEADER
    data = {"empty": b"", "bytes": draw(st.binary(max_size=64))}.get(fault, _csv_bytes([header] + rows))
    if fault == "not-utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]

    label_fault = draw(st.sampled_from([None, None, "valid", "missing", "twice", "fields", "bytes"]))
    if label_fault is None:
        return data, None
    label_rows = [[f"s{i}", draw(st.sampled_from(["A", "B"]))] for i in range(n_specimens)]
    if label_fault == "missing":
        label_rows.pop(draw(st.integers(0, n_specimens - 1)))
    elif label_fault == "twice":
        label_rows.append(label_rows[0])
    elif label_fault == "fields":
        label_rows[0].append("extra")
    labels = draw(st.binary(max_size=64)) if label_fault == "bytes" else _csv_bytes([["specimen_id", "label"]] + label_rows)
    return data, labels


class TestReaderFuzz:
    @settings(max_examples=40, deadline=None)
    @given(landmark_inputs())
    def test_run_and_classify_exit_cleanly(self, inputs):
        data_bytes, label_bytes = inputs
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            data = tmp / "d.csv"
            data.write_bytes(data_bytes)
            args = ["--data", str(data), "--pipelines", "GM", "--n-points", "5"]
            if label_bytes is not None:
                labels = tmp / "labels.csv"
                labels.write_bytes(label_bytes)
                args += ["--labels", str(labels)]
            rejected = False
            try:
                configs = read_landmark_csv(data)
                if label_bytes is not None:
                    apply_labels(configs, read_labels_csv(labels))
            except InputError:
                rejected = True
            for command in ("run", "classify"):
                out = tmp / command
                code = main([command, "--out", str(out)] + args + (["--classifiers", "lda"] if command == "classify" else []))
                assert code in (0, 2, 3, 4)
                if rejected:
                    assert code == 2 and not out.exists()


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
        # replicate fails naming it; replicate b holds no such specimen.
        configs = small_dataset(seed=6, sizes=(4, 4, 4, 4))
        bad = configs[7]
        configs[7] = LandmarkConfiguration(bad.specimen_id, np.full_like(bad.points, 0.25), bad.label)
        write_dataset(tmp_path / "a.csv", configs)
        write_dataset(tmp_path / "b.csv", small_dataset(seed=7, sizes=(4, 4, 4, 4)))
        out = tmp_path / "o"
        args = ["run", "--data", f"{tmp_path / 'a.csv'},{tmp_path / 'b.csv'}", "--out", str(out), "--pipelines", "ArcGM,GM"]
        assert main(args) == 4
        failures = json.loads((out / "manifest.json").read_text())["failures"]
        assert failures == [f"a/ArcGM: degenerate curve: specimen {bad.specimen_id}", f"a/GM: zero centroid size: specimen {bad.specimen_id}"]
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
        assert "d: all specimens share one label; cross validation needs at least 2 classes" in capsys.readouterr().err
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

    def test_skipped_svg_pipelines_are_warned_in_manifest_and_report(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.csv"
        write_dataset(data, small_dataset(seed=4, sizes=(5, 5, 5, 5), n_points=15))
        args = ["classify", "--data", str(data), "--n-points", "15", "--pipelines", "GM,FDM", "--classifiers", "lda", "--svg"]
        full_fit = cli.run_pipeline

        def failing_fdm_and_one_component_gm(pid, configs, settings):
            if pid == "FDM":
                raise ValueError("no variance")
            output = full_fit(pid, configs, settings)
            return dataclasses.replace(output, k95=1)

        monkeypatch.setattr(cli, "run_pipeline", failing_fdm_and_one_component_gm)
        out = tmp_path / "o"
        assert main(args + ["--out", str(out)]) == 0
        warnings = [
            "d/GM/svg: k95 = 1; a component pair needs at least 2 components",
            "d/FDM/svg: no variance",
        ]
        assert json.loads((out / "manifest.json").read_text())["warnings"] == warnings
        assert not list(out.glob("pc_pairs_*"))
        assert "warnings:\n  " + "\n  ".join(warnings) in capsys.readouterr().err
        assert main(["report", "--out", str(out)]) == 0
        assert "\nwarnings:\n  " + "\n  ".join(warnings) + "\n" in capsys.readouterr().out

    def test_svg_legend_escapes_labels(self, tmp_path):
        labels = ["R&D", "a<b", "c>d", "G4"]
        configs = [LandmarkConfiguration(c.specimen_id, c.points, labels[i // 5])
                   for i, c in enumerate(small_dataset(seed=4, sizes=(5, 5, 5, 5), n_points=15))]
        write_dataset(tmp_path / "d.csv", configs)
        out = tmp_path / "o"
        args = ["classify", "--data", str(tmp_path / "d.csv"), "--out", str(out), "--n-points", "15",
                "--pipelines", "GM", "--classifiers", "lda", "--svg"]
        assert main(args) == 0
        texts = [node.text for node in ElementTree.parse(out / "pc_pairs_GM.svg").iter("{http://www.w3.org/2000/svg}text")]
        assert sorted(texts[1:]) == sorted(labels)

    def test_svg_is_skipped_when_lda_fits_no_fold(self, tmp_path, capsys):
        # Three classes of 2 specimens: every LDA training fold holds a class of one specimen.
        data = tmp_path / "d.csv"
        write_dataset(data, small_dataset(seed=4, sizes=(2, 2, 2, 1), n_points=12)[:6])
        out = tmp_path / "o"
        args = ["classify", "--data", str(data), "--out", str(out), "--n-points", "12",
                "--pipelines", "GM,FDM", "--classifiers", "svm", "--svg"]
        assert main(args) == 0
        warnings = [f"d/{pid}/svg: LDA fits no fold of any adjacent component pair" for pid in ("GM", "FDM")]
        assert json.loads((out / "manifest.json").read_text())["warnings"] == warnings
        assert "warnings:\n  " + "\n  ".join(warnings) in capsys.readouterr().err
        assert not list(out.glob("pc_pairs_*"))

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

    def test_two_specimen_class_fails_only_the_lda_task_and_names_the_class(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_dataset(data, small_dataset(seed=4, sizes=(2, 6, 6, 6), n_points=15))
        out = tmp_path / "o"
        assert main(["classify", "--data", str(data), "--out", str(out), "--pipelines", "GM", "--classifiers", "lda,svm"]) == 4
        failure = "d/GM/lda: label 'G1' has 2 specimens; LDA cross validation needs at least 3 per class"
        assert failure in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["failures"] == [failure]
        with open(out / "cv_summary.csv") as fh:
            assert [(r["pipeline"], r["classifier"]) for r in csv.DictReader(fh)] == [("GM", "svm")]

    def test_unconverged_fits_are_warned_in_manifest_and_report(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.csv"
        write_dataset(data, small_dataset(seed=4, sizes=(5, 5, 5, 5), n_points=15))
        args = ["classify", "--data", str(data), "--pipelines", "GM", "--classifiers", "lda,multinomial,svm"]
        assert main(args + ["--out", str(tmp_path / "converged")]) == 0
        assert json.loads((tmp_path / "converged" / "manifest.json").read_text())["warnings"] == []
        monkeypatch.setattr(classify, "_NEWTON_MAX_ITER", 1)
        out = tmp_path / "capped"
        assert main(args + ["--out", str(out)]) == 0
        warning = "d/GM/multinomial: 5 of 5 fold fits did not converge"
        assert json.loads((out / "manifest.json").read_text())["warnings"] == [warning]
        assert warning in capsys.readouterr().err
        assert main(["report", "--out", str(out)]) == 0
        assert f"\nwarnings:\n  {warning}\n" in capsys.readouterr().out

    def test_unconverged_karcher_means_are_warned_in_manifest_and_report(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "d.csv"
        write_dataset(data, small_dataset(seed=4, sizes=(4, 4, 4, 4), n_points=15))
        args = ["classify", "--data", str(data), "--pipelines", "GM,SoftSrvFdm", "--classifiers", "multinomial",
                "--n-points", "15", "--svg"]
        assert main(args + ["--out", str(tmp_path / "converged")]) == 0
        assert json.loads((tmp_path / "converged" / "manifest.json").read_text())["warnings"] == []
        capsys.readouterr()
        monkeypatch.setattr(srvf, "_KARCHER_MAX_ITER", 2)
        out = tmp_path / "capped"
        assert main(args + ["--out", str(out)]) == 0
        warnings = [
            "d/SoftSrvFdm/multinomial: Karcher mean stopped without converging in 5 of 5 fold fits",
            "d/SoftSrvFdm/svg: Karcher mean stopped at 2 iterations without converging",
        ]
        assert json.loads((out / "manifest.json").read_text())["warnings"] == warnings
        assert "warnings:\n  " + "\n  ".join(warnings) in capsys.readouterr().err
        assert main(["report", "--out", str(out)]) == 0
        assert "\nwarnings:\n  " + "\n  ".join(warnings) + "\n" in capsys.readouterr().out

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

    @pytest.mark.parametrize("value,expected", [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False)])
    def test_boolean_values(self, tmp_path, value, expected):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"svg = {value}\n")
        assert read_config_file(str(cfg)) == {"svg": expected}

    @pytest.mark.parametrize("value", ["ture", "on", "2", ""])
    def test_other_boolean_values_are_input_errors(self, tmp_path, capsys, value):
        data = tmp_path / "d.csv"
        write_dataset(data, small_dataset(seed=3, sizes=(3, 3, 3, 3), n_points=10))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"pipelines=GM\nsvg={value}\n")
        out = tmp_path / "o"
        assert main(["classify", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {cfg}:2: expected 1/0, true/false or yes/no")
        assert not out.exists()

    @pytest.mark.parametrize(
        "name,content,message",
        [
            ("manifest.json", b"{bad", "cannot read {}: Expecting"),
            ("manifest.json", b"\xff", "cannot read {}: 'utf-8' codec"),
            ("manifest.json", b"[]", "{}: expected a JSON object"),
            ("manifest.json", b'{"failures": 5}', "{}: expected a JSON object whose failures are a list"),
            ("manifest.json", b'{"warnings": "x"}', "{}: expected a JSON object whose warnings are a list"),
            ("mse.csv", b"pipeline,mean\n\xff\n", "cannot read {}: 'utf-8' codec"),
        ],
        ids=["manifest-not-json", "manifest-not-utf8", "manifest-not-object", "failures-not-list", "warnings-not-list",
             "table-not-utf8"],
    )
    def test_report_of_unreadable_file_is_an_input_error(self, tmp_path, capsys, name, content, message):
        (tmp_path / "manifest.json").write_text('{"command": "run", "seed": 0}\n')
        (tmp_path / name).write_bytes(content)
        assert main(["report", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("input error: " + message.format(tmp_path / name))

    def test_report_prints_failures_that_are_not_strings(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text('{"command": "run", "failures": ["rep/GM: singular", 7]}\n')
        assert main(["report", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.endswith("failures:\n  rep/GM: singular\n  7\n")

    def test_report_of_an_empty_table_prints_its_name(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text('{"command": "run", "seed": 0}\n')
        (tmp_path / "mse.csv").write_bytes(b"")
        assert main(["report", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == f"curvemorph results in {tmp_path}\ncommand: run\nseed: 0\n\nmse.csv\n"

    def test_report_prints_tables(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_dataset(data, small_dataset(seed=8, sizes=(4, 4, 4, 4), n_points=12))
        out = tmp_path / "o"
        assert main(["run", "--data", str(data), "--out", str(out), "--pipelines", "GM,FDM", "--n-points", "12"]) == 0
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 0
        shown = capsys.readouterr().out
        assert "mse.csv" in shown and "GM" in shown
