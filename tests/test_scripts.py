import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class TestSimulationStudyScript:
    def test_one_replicate_end_to_end(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        args = ["--out", str(tmp_path / "study"), "--n-reps", "1", "--pipelines", "GM,FDM", "--classify-reps", "1"]
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_simulation_study.py"), *args],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "study" / "pipelines" / "mse.csv").is_file()
        assert (tmp_path / "study" / "classification" / "cv_summary.csv").is_file()


class TestOutputDigests:
    def test_seeded_outputs_match_the_expected_digests(self):
        """Seeded CSV/SVG outputs move only together with an edit of ``scripts/output_digests.expected``."""
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "output_digests.py"), "--check", str(ROOT / "scripts" / "output_digests.expected")],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
