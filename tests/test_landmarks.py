import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import special_ortho_group

from curvemorph.landmarks import (
    LandmarkConfiguration,
    ZeroCentroidSizeError,
    align_to_reference,
    center,
    centroid_size,
    gpa,
    optimal_rotation,
    superimpose,
)

import oracles
from helpers import benchmark_helix_replicate, bitwise_equal


def make_config(points, sid="s", label=None):
    return LandmarkConfiguration(sid, np.asarray(points, dtype=float), label)


def rigid_motion(points, rng, scale=None):
    r = special_ortho_group.rvs(3, random_state=rng)
    t = rng.normal(size=3) * 10
    s = scale if scale is not None else rng.uniform(0.5, 3.0)
    return s * points @ r + t


class TestCentroidSize:
    def test_hand_value(self):
        cfg = make_config([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert centroid_size(cfg.points) == pytest.approx(np.sqrt(4.0 / 3.0), abs=1e-12)

    @given(st.floats(min_value=0.1, max_value=100.0))
    def test_homogeneous_degree_one(self, factor):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.2, 2.0]])
        assert centroid_size(factor * pts) == pytest.approx(factor * centroid_size(pts), rel=1e-10)

    def test_coincident_points_error(self):
        with pytest.raises(ValueError, match="zero centroid size"):
            centroid_size(make_config([[1, 1, 1]] * 4).points)

    def test_centering_invariance(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(6, 3))
        assert centroid_size(center(pts)) == pytest.approx(centroid_size(pts), rel=1e-12)


class TestOptimalRotation:
    def test_identity_when_equal(self):
        pts = center(np.random.default_rng(1).normal(size=(5, 3)))
        r, degenerate = optimal_rotation(pts, pts)
        assert np.allclose(r, np.eye(3), atol=1e-10)
        assert not degenerate

    def test_recovers_known_rotation(self):
        rng = np.random.default_rng(2)
        pts = center(rng.normal(size=(7, 3)))
        r0 = special_ortho_group.rvs(3, random_state=rng)
        r, _ = optimal_rotation(pts, pts @ r0)
        assert np.allclose(r, r0, atol=1e-8)

    def test_beats_random_search(self):
        rng = np.random.default_rng(3)
        source = center(rng.normal(size=(5, 3)))
        target = center(rng.normal(size=(5, 3)))
        r, _ = optimal_rotation(source, target)
        best = np.linalg.norm(source @ r - target)
        for _ in range(1000):
            cand = special_ortho_group.rvs(3, random_state=rng)
            assert best <= np.linalg.norm(source @ cand - target) + 1e-12

    def test_proper_rotation(self):
        rng = np.random.default_rng(4)
        r, _ = optimal_rotation(center(rng.normal(size=(4, 3))), center(rng.normal(size=(4, 3))))
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


class TestGpa:
    def test_identical_configurations(self):
        pts = np.random.default_rng(5).normal(size=(8, 3))
        result = gpa(np.stack([pts] * 4))
        for a in result.aligned:
            assert np.allclose(a, result.consensus, atol=1e-9)
        ssd = sum(np.sum((a - result.consensus) ** 2) for a in result.aligned)
        assert ssd < 1e-18

    def test_removes_similarity_transform(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(10, 3))
        moved = rigid_motion(pts, rng)
        result = gpa(np.stack([pts, moved]))
        dist = np.linalg.norm(result.aligned[0] - result.aligned[1])
        assert dist < 1e-8

    def test_noisy_copies_recover_template(self):
        rng = np.random.default_rng(7)
        template = rng.normal(size=(12, 3))
        noise_sd = 0.01
        configs = np.stack([template + rng.normal(0, noise_sd, size=(12, 3)) for _ in range(10)])
        result = gpa(configs)
        normalized = center(template) / centroid_size(template)
        r, _ = optimal_rotation(result.consensus, normalized)
        gap = np.linalg.norm(result.consensus @ r - normalized)
        assert gap < 3 * noise_sd / centroid_size(template) * np.sqrt(12 * 3)

    def test_aligned_invariants(self):
        rng = np.random.default_rng(8)
        configs = np.stack([rng.normal(size=(6, 3)) for _ in range(5)])
        result = gpa(configs)
        assert result.converged
        for a in result.aligned:
            assert np.linalg.norm(a.mean(axis=0)) < 1e-10
            assert centroid_size(a) == pytest.approx(1.0, abs=1e-10)
        # Consensus: unit size, proportional to the coordinate-wise mean.
        assert centroid_size(result.consensus) == pytest.approx(1.0, abs=1e-8)
        mean = np.mean(result.aligned, axis=0)
        assert np.allclose(result.consensus * centroid_size(mean), mean, atol=1e-10)

    def test_invariant_to_input_similarity_transforms(self):
        rng = np.random.default_rng(9)
        base = [rng.normal(size=(7, 3)) for _ in range(6)]
        moved = [rigid_motion(p, rng) for p in base]
        ra = gpa(np.stack(base))
        rb = gpa(np.stack(moved))

        def pairwise(result):
            pts = result.aligned
            return np.array(
                [np.linalg.norm(pts[i] - pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts))]
            )

        assert np.max(np.abs(pairwise(ra) - pairwise(rb))) < 1e-8

    def test_degenerate_configuration_errors(self):
        ok = np.random.default_rng(10).normal(size=(4, 3))
        with pytest.raises(ValueError, match="zero centroid size"):
            gpa(np.stack([ok, np.ones((4, 3))]))

    def test_zero_size_rows_are_named(self):
        stack = np.random.default_rng(10).normal(size=(5, 4, 3))
        stack[1] = 2.5
        stack[3] = -0.0
        with pytest.raises(ZeroCentroidSizeError, match="^zero centroid size: row 1, 3$") as exc:
            gpa(stack)
        assert exc.value.rows == [1, 3]

    def test_align_to_reference_matches_gpa_frame(self):
        rng = np.random.default_rng(11)
        configs = np.stack([rng.normal(size=(6, 3)) for _ in range(5)])
        result = gpa(configs)
        aligned = align_to_reference(rigid_motion(configs[2], rng), result.consensus)
        assert np.allclose(aligned, result.aligned[2], atol=1e-6)


@st.composite
def configuration_stacks(draw):
    """(n, N, 3) source and target stacks mixing general, mirrored, collinear, coplanar and (near) zero-size configurations."""
    n = draw(st.integers(1, 8))
    n_landmarks = draw(st.integers(3, 60))  # past 42, numpy sums the 3N values in pairwise blocks
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = rng.normal(size=(n, n_landmarks, 3))
    target = source @ special_ortho_group.rvs(3, size=n, random_state=rng).reshape(n, 3, 3)
    target += rng.normal(scale=draw(st.sampled_from([0.0, 1e-3, 1.0])), size=target.shape)
    for i in range(n):
        kind = draw(st.sampled_from(["general", "mirrored", "collinear", "coplanar", "axis-plane", "point", "near-point"]))
        if kind == "mirrored":  # the best orthogonal map is a reflection: the det -1 flip
            target[i] = source[i] * [1.0, 1.0, -1.0]
        elif kind == "collinear":
            source[i] = np.outer(rng.normal(size=n_landmarks), rng.normal(size=3))
        elif kind == "coplanar":
            source[i] = rng.normal(size=(n_landmarks, 2)) @ rng.normal(size=(2, 3))
        elif kind == "axis-plane":  # exact zeros of both signs in one coordinate
            source[i, :, rng.integers(3)] = rng.choice([0.0, -0.0], size=n_landmarks)
            target[i, :, 2] = 0.0
        elif kind == "point":  # centred exactly to zero
            source[i] = rng.integers(-8, 8, size=3) / 4.0
        elif kind == "near-point":  # the centring's round-off leaves a tiny size
            source[i] = rng.normal(size=3)
    return source, target


def assert_matches_loop(stacked, oracle, *stacks):
    """``stacked`` on whole stacks equals ``oracle`` mapped over their rows, or both reject a zero-size row."""
    try:
        expected = np.stack([oracle(*rows) for rows in zip(*stacks)])
    except ValueError as exc:
        assert str(exc) == "zero centroid size"
        with pytest.raises(ZeroCentroidSizeError):
            stacked(*stacks)
    else:
        assert bitwise_equal(stacked(*stacks), expected)


class TestStackMatchesOracle:
    """The stacked Procrustes functions against the per-configuration oracles of ``tests/oracles.py``, bitwise."""

    @settings(max_examples=150, deadline=None)
    @given(configuration_stacks())
    def test_procrustes_functions(self, stacks):
        source, target = stacks
        assert_matches_loop(center, oracles.center, source)
        src_c, tgt_c = center(source), center(target)
        # A target per configuration, and one target broadcast over the stack.
        for tgt, rows in ((tgt_c, tgt_c), (tgt_c[0], [tgt_c[0]] * len(src_c))):
            r, degenerate = optimal_rotation(src_c, tgt)
            expected = [oracles.optimal_rotation(a, b) for a, b in zip(src_c, rows)]
            assert bitwise_equal(r, np.stack([e[0] for e in expected]))
            assert degenerate.tolist() == [e[1] for e in expected]
        assert_matches_loop(superimpose, oracles.superimpose, source, target)

        assert_matches_loop(centroid_size, oracles.centroid_size, source)
        reference = target[0]
        assert_matches_loop(lambda stack: align_to_reference(stack, reference), lambda p: oracles.align_to_reference(p, reference), source)
        if len(source) >= 2:
            try:
                expected = oracles.gpa(source)
            except ValueError:
                with pytest.raises(ZeroCentroidSizeError):
                    gpa(source)
            else:
                assert_same_gpa(gpa(source), expected)

    def test_benchmark_helix_replicate(self):
        stack = np.stack([c.points for c in benchmark_helix_replicate()])
        assert stack.shape == (200, 30, 3)
        assert_same_gpa(gpa(stack), oracles.gpa(stack))

    def test_two_dimensional_calls_keep_their_scalar_results(self):
        points = np.random.default_rng(13).normal(size=(6, 3))
        assert centroid_size(points) == oracles.centroid_size(points)
        r, degenerate = optimal_rotation(center(points), center(points[::-1]))
        assert r.shape == (3, 3) and degenerate == oracles.optimal_rotation(center(points), center(points[::-1]))[1]


def assert_same_gpa(result, expected):
    assert bitwise_equal(result.aligned, expected.aligned)
    assert bitwise_equal(result.consensus, expected.consensus)
    assert bitwise_equal(result.centroid_sizes, expected.centroid_sizes)
    assert (result.iterations, result.converged, result.degenerate) == (expected.iterations, expected.converged, expected.degenerate)


class TestValidation:
    def test_too_few_landmarks(self):
        with pytest.raises(ValueError):
            make_config([[0, 0, 0], [1, 1, 1]])

    def test_non_finite(self):
        with pytest.raises(ValueError):
            make_config([[0, 0, 0], [1, 0, 0], [np.nan, 1, 0]])

    @settings(max_examples=25)
    @given(st.integers(min_value=3, max_value=20))
    def test_gpa_needs_two(self, n):
        pts = np.random.default_rng(n).normal(size=(n, 3))
        with pytest.raises(ValueError):
            gpa(pts[None])

    @pytest.mark.parametrize(
        "shape,bad_value",
        [((4, 6, 3), np.nan), ((4, 6, 3), np.inf), ((4, 2, 3), None), ((1, 6, 3), None), ((6, 3), None), ((4, 6, 2), None)],
        ids=["nan", "inf", "two-landmarks", "one-configuration", "2-d", "two-coordinates"],
    )
    def test_gpa_rejects_malformed_stack(self, shape, bad_value):
        points = np.random.default_rng(12).normal(size=shape)
        if bad_value is not None:
            points[2, 1, 0] = bad_value
        with pytest.raises(ValueError):
            gpa(points)
