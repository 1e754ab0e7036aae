import numpy as np
import pytest

from coneglow import (
    ConstructionError,
    DetectionConfig,
    DetectionReport,
    DetectionStatus,
    DomainError,
    MatrixMap,
    SubsetMask,
    TriangleMap,
    build_adversarial_euclid,
    demo_schoen_composition,
    detect_eigenvector,
    detect_fixed_point_smooth,
    detect_fixed_point_sup,
    eval_map,
    power_iteration,
    ratio_subsets,
)


class TestSubsetMask:
    def test_indices(self):
        assert SubsetMask(0b101, 4).indices() == (0, 2)

    def test_rejects_empty_and_full(self):
        with pytest.raises(DomainError):
            SubsetMask(0, 3)
        with pytest.raises(DomainError):
            SubsetMask(7, 3)


class TestConfig:
    def test_defaults(self):
        config = DetectionConfig()
        assert config.box_radius == 100.0
        assert config.max_samples == 10 ** 5
        assert config.gap_tol == 1e-9

    def test_validation(self):
        with pytest.raises(DomainError):
            DetectionConfig(box_radius=0.0)
        with pytest.raises(DomainError):
            DetectionConfig(seed=-1)
        with pytest.raises(DomainError):
            DetectionConfig(max_samples=0)


class TestRatioSubsets:
    def test_ones_matrix_example(self):
        masks = ratio_subsets(MatrixMap([[1, 1], [1, 1]]), [2.0, 1.0])
        assert [m.bits for m in masks] == [0b01]

    def test_eigenvector_gives_nothing(self):
        masks = ratio_subsets(MatrixMap([[1, 1], [1, 1]]), [1.0, 1.0])
        assert masks == []

    def test_three_distinct_ratios(self):
        # diag(1, 2, 3): ratios are (1, 2, 3), cuts after 1 and 2
        spec = MatrixMap(np.diag([1.0, 2.0, 3.0]))
        masks = ratio_subsets(spec, [1.0, 1.0, 1.0])
        assert {m.bits for m in masks} == {0b001, 0b011}

    def test_at_most_n_minus_one(self):
        rng = np.random.default_rng(20)
        spec = demo_schoen_composition()
        for _ in range(100):
            x = np.append(np.exp(rng.uniform(-50, 50, 3)), 1.0)
            masks = ratio_subsets(spec, x)
            assert len(masks) <= 3

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(21)
        specs = [demo_schoen_composition(), TriangleMap(1 / 6),
                 MatrixMap(rng.uniform(0.05, 2.0, (6, 6)))]
        for spec in specs:
            n = spec.dim
            for _ in range(120):
                x = np.append(np.exp(rng.uniform(-80, 80, n - 1)), 1.0)
                got = {m.bits for m in ratio_subsets(spec, x)}
                fx = eval_map(spec, x)
                rho = np.log(fx) - np.log(x)
                thr = 1e-9 * max(1.0, float(rho.max() - rho.min()))
                want = set()
                for mask in range(1, 2 ** n - 1):
                    inside = [rho[i] for i in range(n) if (mask >> i) & 1]
                    outside = [rho[i] for i in range(n) if not (mask >> i) & 1]
                    if min(outside) - max(inside) > thr:
                        want.add(mask)
                assert got == want


class TestDetectEigenvector:
    def test_ones_matrix_quick(self):
        report = detect_eigenvector(MatrixMap([[1, 1], [1, 1]]),
                                    DetectionConfig(seed=0))
        assert report.confirmed
        assert report.samples_used <= 10
        assert report.total_subsets == 2

    def test_witnesses_revalidate(self):
        config = DetectionConfig(seed=5)
        spec = demo_schoen_composition()
        report = detect_eigenvector(spec, config)
        assert report.confirmed
        assert len(report.witnesses) == report.total_subsets == 14
        for mask, point in report.witnesses.items():
            bits = {m.bits for m in ratio_subsets(spec, point, config.gap_tol / 2)}
            assert mask in bits

    def test_triangle_c0_undetermined(self):
        report = detect_eigenvector(TriangleMap(0.0),
                                    DetectionConfig(seed=1, max_samples=2000))
        assert report.status is DetectionStatus.UNDETERMINED
        assert report.samples_used == 2000
        assert report.subsets_covered == 3  # pairs appear, singletons never

    def test_upper_triangular_never_confirms(self):
        report = detect_eigenvector(MatrixMap([[1, 1], [0, 1]]),
                                    DetectionConfig(seed=2, max_samples=5000))
        assert not report.confirmed
        assert report.subsets_covered == 1

    def test_determinism_bytes(self):
        spec = demo_schoen_composition()
        a = detect_eigenvector(spec, DetectionConfig(seed=11))
        b = detect_eigenvector(spec, DetectionConfig(seed=11))
        assert a.to_json_bytes() == b.to_json_bytes()

    def test_batch_plan_does_not_change_results(self):
        spec = demo_schoen_composition()
        a = detect_eigenvector(spec, DetectionConfig(seed=11))
        b = detect_eigenvector(spec, DetectionConfig(seed=11),
                               _batches=(5, 17, 251))
        assert a.to_json_bytes() == b.to_json_bytes()

    def test_report_roundtrip(self):
        report = detect_eigenvector(MatrixMap([[1, 1], [1, 1]]),
                                    DetectionConfig(seed=3))
        clone = DetectionReport.from_json_dict(report.to_json_dict())
        assert clone.to_json_bytes() == report.to_json_bytes()

    def test_soundness_on_confirmed(self):
        rng = np.random.default_rng(22)
        for spec in (demo_schoen_composition(), TriangleMap(1 / 6),
                     MatrixMap(rng.uniform(0.1, 2.0, (4, 4)))):
            report = detect_eigenvector(spec, DetectionConfig(seed=7))
            assert report.confirmed
            for trial in range(5):
                x0 = np.exp(rng.uniform(-2, 2, spec.dim))
                res = power_iteration(spec, x0)
                assert res.converged
                fx = eval_map(spec, res.vector)
                err = np.max(np.abs(fx - res.eigenvalue * res.vector))
                assert err <= 1e-8 * np.max(np.abs(res.vector))

    def test_box_radius_guard(self):
        with pytest.raises(DomainError):
            detect_eigenvector(MatrixMap([[1, 1], [1, 1]]),
                               DetectionConfig(box_radius=800.0))

    def test_dimension_one_is_vacuous(self):
        # one-dimensional homogeneous maps fix every ray: zero subsets to
        # cover, confirmed without sampling
        report = detect_eigenvector(MatrixMap([[3.0]]), DetectionConfig(seed=0))
        assert report.confirmed
        assert report.samples_used == 0
        assert report.total_subsets == 0


class TestDetectFixedPointSup:
    def test_zero_map_confirms(self):
        report = detect_fixed_point_sup(lambda X: 0.0 * X, 3,
                                        DetectionConfig(seed=0), vectorized=True)
        assert report.confirmed
        assert report.total_subsets == 8

    def test_translation_never_confirms(self):
        b = np.array([1.0, -0.5])
        report = detect_fixed_point_sup(lambda X: X + b, 2,
                                        DetectionConfig(seed=1, max_samples=3000),
                                        vectorized=True)
        assert not report.confirmed
        assert report.subsets_covered == 1

    def test_affine_contraction_confirms(self):
        b = np.array([1.0, 2.0])
        report = detect_fixed_point_sup(lambda X: 0.5 * X + b, 2,
                                        DetectionConfig(seed=2), vectorized=True)
        assert report.confirmed
        # witnesses realize their own sign patterns
        for mask, w in report.witnesses.items():
            r = 0.5 * w + b - w
            for j in range(2):
                assert (r[j] < 0) == bool((mask >> j) & 1)

    def test_unvectorized_callable(self):
        report = detect_fixed_point_sup(lambda x: 0.25 * x, 2,
                                        DetectionConfig(seed=3, max_samples=2000))
        assert report.confirmed

    def test_vectorized_matches_unvectorized(self):
        config = DetectionConfig(seed=4, max_samples=2000)
        slow = detect_fixed_point_sup(lambda x: 0.25 * x + 1.0, 3, config)
        fast = detect_fixed_point_sup(lambda X: 0.25 * X + 1.0, 3, config,
                                      vectorized=True)
        assert slow.to_json_bytes() == fast.to_json_bytes()


class TestDetectFixedPointSmooth:
    def test_contraction_confirms(self):
        report = detect_fixed_point_smooth(lambda X: 0.9 * X, 2,
                                           DetectionConfig(seed=0), vectorized=True)
        assert report.confirmed
        assert report.probe_points is not None
        assert len(report.probe_points) == report.samples_used

    def test_rotation_confirms(self):
        Q = np.array([[0.0, -1.0], [1.0, 0.0]])
        report = detect_fixed_point_smooth(lambda X: X @ Q.T, 2,
                                           DetectionConfig(seed=1), vectorized=True)
        assert report.confirmed

    def test_translation_undetermined(self):
        b = np.array([0.5, 1.0])
        report = detect_fixed_point_smooth(lambda X: X + b, 2,
                                           DetectionConfig(seed=2, max_samples=3000),
                                           vectorized=True)
        assert not report.confirmed
        assert report.samples_used == 3000

    def test_large_budget_is_not_preallocated(self):
        import tracemalloc

        tracemalloc.start()
        try:
            report = detect_fixed_point_smooth(
                lambda X: 0.5 * X, 2, DetectionConfig(seed=0, max_samples=10 ** 7),
                vectorized=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.confirmed
        assert peak < 50 * 2 ** 20

    def test_matches_naive_per_boundary_certificate(self):
        # the cached-separator fast path must agree with re-running the hull
        # certificate at every n+1 boundary, for confirming and
        # non-confirming maps alike
        from coneglow import interior_hull_certificate

        def naive(f, n, config):
            rng = np.random.default_rng(config.seed)
            W = rng.uniform(-config.box_radius, config.box_radius,
                            size=(config.max_samples, n))
            residuals = f(W) - W
            for b in range(n + 1, config.max_samples + 1, n + 1):
                if interior_hull_certificate(residuals[:b]).inside:
                    return "confirmed", b
            return "undetermined", config.max_samples

        b = np.array([0.4, -0.2])
        Q = np.array([[0.0, -1.0], [1.0, 0.0]])
        maps = [
            lambda X: X + b,                      # never confirms
            lambda X: 0.9 * X,                    # confirms immediately
            lambda X: X @ Q.T,                    # confirms immediately
            lambda X: np.sin(X) + 0.3 * X,        # direction-rich residuals
            lambda X: np.abs(X) * 0.1 + 1.0,      # residuals flip with w
        ]
        for f in maps:
            for seed in range(4):
                config = DetectionConfig(seed=seed, max_samples=120)
                report = detect_fixed_point_smooth(f, 2, config, vectorized=True)
                status, samples = naive(f, 2, config)
                assert report.status.value == status
                assert report.samples_used == samples


class TestAdversarial:
    def test_construction_example(self):
        adv = build_adversarial_euclid([[1.0, 0.0]], c=1.0)
        assert np.allclose(adv.phi, [-1.0, 0.0])
        assert np.allclose(adv.z, [-1.0, 0.0])
        assert np.allclose(adv(np.array([-1.0, 0.0])), [0.0, 0.0])

    def test_iterates_run_away(self):
        adv = build_adversarial_euclid([[1.0, 0.0]], c=1.0)
        x = np.zeros(2)
        for k in range(1, 11):
            x = adv(x)
            assert np.allclose(x, -k * adv.c * adv.z, atol=1e-12)

    def test_nonexpansive(self):
        rng = np.random.default_rng(23)
        adv = build_adversarial_euclid(rng.normal(size=(2, 3)), c=0.7)
        for _ in range(300):
            x, y = rng.normal(size=(2, 3)) * 10
            lhs = float(np.linalg.norm(adv(x) - adv(y)))
            assert lhs <= float(np.linalg.norm(x - y)) + 1e-12

    def test_residuals_at_base_points(self):
        rng = np.random.default_rng(24)
        V = rng.normal(size=(3, 4))
        adv = build_adversarial_euclid(V, c=2.0)
        for v, w in zip(V, adv.base_points):
            assert np.allclose(adv(w) - w, v, atol=1e-9)

    def test_never_confirmed(self):
        adv = build_adversarial_euclid([[1.0, 0.0]], c=1.0)
        for seed in range(3):
            report = detect_fixed_point_smooth(
                adv, 2, DetectionConfig(seed=seed, max_samples=20000),
                vectorized=True)
            assert not report.confirmed

    def test_too_many_directions(self):
        with pytest.raises(DomainError):
            build_adversarial_euclid([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], c=1.0)

    def test_inconsistent_base_points(self):
        # with w1 = -w2 the system <phi, w> = c > 0 has no solution
        with pytest.raises(ConstructionError):
            build_adversarial_euclid([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], c=1.0)
