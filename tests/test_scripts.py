import csv
import hashlib
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


def output_digests(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digests.py"), *map(str, args)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )


class TestOutputDigests:
    def test_seeded_outputs_match_the_expected_digests(self, tmp_path):
        """Seeded CSV/SVG outputs move only together with an edit of ``scripts/output_digests.expected``.

        ``--keep`` copies the outputs each line digests; ``--against`` then
        names only the kept files that differ, with their largest cell change.
        """
        kept = tmp_path / "kept"
        proc = output_digests("--check", ROOT / "scripts" / "output_digests.expected", "--keep", kept)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        for line in proc.stdout.splitlines():
            name, _, rest = line.partition(": ")
            listing = "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n" for p in sorted((kept / name).iterdir()))
            assert rest.endswith(f"{len(list((kept / name).iterdir()))} files, {hashlib.sha256(listing.encode()).hexdigest()[:16]}")

        mse = kept / "run-linear" / "mse.csv"
        rows = list(csv.reader(mse.open(newline="")))
        scale = max(abs(float(cell)) for row in rows[1:] for cell in row[1:])
        rows[1][1] = repr(float(rows[1][1]) - 1e-3 * scale)
        with mse.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        (kept / "classify-cv" / "cv_summary.csv").unlink()
        proc = output_digests("--against", kept)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines()[6:] == [
            f"run-linear/mse.csv: largest cell difference 0.001 of the largest magnitude {scale:.3g}",
            f"classify-cv/cv_summary.csv: not in {kept}",
        ]
