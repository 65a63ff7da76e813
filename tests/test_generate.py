import numpy as np
import pytest

from gweave import (
    GFrame,
    GFrameFamily,
    GenSpec,
    frame_bounds,
    generate,
    is_g_orthonormal,
    random_partition,
    riesz_bounds,
    synthesis_matrix,
)


class TestGenSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            GenSpec(2, (1, 1), "weird", seed=0)

    def test_parseval_needs_enough_rows(self):
        with pytest.raises(ValueError, match="span"):
            GenSpec(3, (1, 1), "parseval", seed=0)

    def test_square_kinds_need_exact_rows(self):
        with pytest.raises(ValueError, match="summing"):
            GenSpec(2, (1, 1, 1), "riesz-basis", seed=0)
        with pytest.raises(ValueError, match="summing"):
            GenSpec(3, (1, 1), "g-orthonormal", seed=0)

    @pytest.mark.parametrize("dims", [(1.5, 1), (True, 1), (1, 1.0)])
    def test_non_integer_block_dims_rejected(self, dims):
        with pytest.raises(ValueError, match="block_dims"):
            GenSpec(2, dims, "parseval", seed=0)

    @pytest.mark.parametrize("field, value", [
        ("ambient_dim", 2.0), ("ambient_dim", True), ("seed", 1.5), ("seed", True), ("seed", "1"),
    ])
    def test_non_integer_size_or_seed_rejected(self, field, value):
        args = {"ambient_dim": 2, "block_dims": (1, 1), "kind": "parseval", "seed": 0}
        with pytest.raises(ValueError, match=field):
            GenSpec(**{**args, field: value})

    def test_numpy_integer_size_and_seed_accepted(self):
        spec = GenSpec(np.int64(2), (1, 1), "parseval", seed=np.uint32(7))
        assert (spec.ambient_dim, spec.seed) == (2, 7)
        assert type(spec.ambient_dim) is int and type(spec.seed) is int
        assert np.array_equal(
            synthesis_matrix(generate(spec)),
            synthesis_matrix(generate(GenSpec(2, (1, 1), "parseval", seed=7))),
        )

    def test_numpy_integer_block_dims_accepted(self):
        spec = GenSpec(2, np.array([1, 1]), "parseval", seed=0)
        assert spec.block_dims == (1, 1) and all(type(d) is int for d in spec.block_dims)

    def test_spectrum_validation(self):
        with pytest.raises(ValueError, match="needs a spectrum"):
            GenSpec(2, (1, 1), "prescribed-spectrum", seed=0)
        with pytest.raises(ValueError, match="entries"):
            GenSpec(2, (1, 1), "prescribed-spectrum", seed=0, spectrum=(1.0,))
        with pytest.raises(ValueError, match="positive"):
            GenSpec(2, (1, 1), "prescribed-spectrum", seed=0, spectrum=(1.0, -2.0))
        with pytest.raises(ValueError, match="only meaningful"):
            GenSpec(2, (1, 1), "parseval", seed=0, spectrum=(1.0, 1.0))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_spectrum_entries_must_be_finite(self, bad):
        # inf passed the positivity test and failed later in matmul; nan
        # failed only when the written file was checked.
        with pytest.raises(ValueError, match="spectrum entries must be finite"):
            GenSpec(2, (1, 1), "prescribed-spectrum", seed=0, spectrum=(bad, 1.0))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("kind", ["perturbed", "parseval"])
    def test_noise_scale_must_be_finite(self, bad, kind):
        with pytest.raises(ValueError, match="noise_scale must be finite"):
            GenSpec(2, (1, 1), kind, seed=0, noise_scale=bad)

    @pytest.mark.parametrize(
        "spectrum", [(True, "2.0", 1.5), (1.0, "2.0", 1.5), (1.0, 2.0, np.bool_(True)),
                     (1.0, 2.0, None), (1.0, 2.0, 1j), (1.0, 2.0, 10**400)],
        ids=["bool-and-str", "str", "numpy-bool", "none", "complex", "int-past-float"],
    )
    def test_spectrum_entries_must_be_reals(self, spectrum):
        with pytest.raises(ValueError, match="^spectrum entries must be finite"):
            GenSpec(3, (1, 1, 1), "prescribed-spectrum", 0, spectrum=spectrum)

    @pytest.mark.parametrize("bad", [True, np.bool_(False), "0.1", None, 0.1 + 0j])
    @pytest.mark.parametrize("kind", ["perturbed", "parseval"])
    def test_noise_scale_must_be_a_real(self, bad, kind):
        with pytest.raises(ValueError, match="^noise_scale must be finite"):
            GenSpec(2, (1, 1), kind, seed=0, noise_scale=bad)

    def test_numpy_reals_read_as_floats(self):
        spec = GenSpec(2, (1, 1), "prescribed-spectrum", 0, spectrum=(np.float32(1.5), np.int64(2)),
                       noise_scale=np.float64(0.25))
        assert spec.spectrum == (1.5, 2.0) and spec.noise_scale == 0.25
        assert all(type(x) is float for x in (*spec.spectrum, spec.noise_scale))

    def test_spectrum_length_checked_before_entries(self):
        with pytest.raises(ValueError, match="^spectrum must have 3 entries, got 2"):
            GenSpec(3, (1, 1, 1), "prescribed-spectrum", 0, spectrum=(True, "2.0"))


class TestGenerate:
    def test_parseval_bounds(self):
        f = generate(GenSpec(2, (1, 1, 1), "parseval", seed=3))
        fb = frame_bounds(f)
        assert fb.lower == pytest.approx(1.0, abs=1e-10)
        assert fb.upper == pytest.approx(1.0, abs=1e-10)

    def test_prescribed_spectrum(self):
        f = generate(GenSpec(2, (1, 1, 2), "prescribed-spectrum", seed=5, spectrum=(1.0, 4.0)))
        fb = frame_bounds(f)
        assert fb.lower == pytest.approx(1.0, abs=1e-8)
        assert fb.upper == pytest.approx(4.0, abs=1e-8)

    def test_riesz_basis_kind(self):
        f = generate(GenSpec(3, (1, 2), "riesz-basis", seed=7))
        assert riesz_bounds(f).is_basis

    def test_g_orthonormal_kind(self):
        f = generate(GenSpec(3, (2, 1), "g-orthonormal", seed=1))
        assert is_g_orthonormal(f)

    def test_perturbed_kind(self):
        fam = generate(GenSpec(2, (1, 1, 1), "perturbed", seed=2, noise_scale=0.01))
        assert isinstance(fam, GFrameFamily)
        assert fam.m == 2
        for fr in fam.frames:
            assert frame_bounds(fr).is_frame
        gap = max(
            float(np.max(np.abs(a - b)))
            for a, b in zip(fam.frames[0].blocks, fam.frames[1].blocks)
        )
        assert 0 < gap < 0.1

    def test_deterministic_in_seed(self):
        spec = GenSpec(3, (1, 2, 1), "prescribed-spectrum", seed=11, spectrum=(1.0, 2.0, 3.0))
        a, b = generate(spec), generate(spec)
        assert isinstance(a, GFrame)
        for x, y in zip(a.blocks, b.blocks):
            assert np.array_equal(x, y)

    def test_different_seeds_differ(self):
        a = generate(GenSpec(2, (1, 1), "riesz-basis", seed=1))
        b = generate(GenSpec(2, (1, 1), "riesz-basis", seed=2))
        assert any(not np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))


class TestRandomPartition:
    def test_single_member(self):
        p = random_partition(4, 1, seed=0)
        assert p.labels == (1, 1, 1, 1)

    def test_zero_indices_rejected(self):
        with pytest.raises(ValueError):
            random_partition(0, 2, seed=0)

    @pytest.mark.parametrize("n_indices, m", [(3, True), (3, 2.0), (3.0, 2), (True, 2)])
    def test_non_integer_sizes_rejected(self, n_indices, m):
        with pytest.raises(ValueError, match="integers"):
            random_partition(n_indices, m, seed=0)

    def test_numpy_integer_sizes_accepted(self):
        assert random_partition(np.int64(6), np.int32(3), seed=9) == random_partition(6, 3, seed=9)

    def test_deterministic(self):
        assert random_partition(6, 3, seed=9) == random_partition(6, 3, seed=9)

    def test_uniformity_chi_square(self):
        # 8 cells, 1e5 seeded draws: every cell count within 5 sigma of 12500.
        draws = 100_000
        counts = {}
        for seed in range(draws):
            key = random_partition(3, 2, seed=seed).labels
            counts[key] = counts.get(key, 0) + 1
        expected = draws / 8
        sigma = np.sqrt(draws * (1 / 8) * (7 / 8))
        assert len(counts) == 8
        for value in counts.values():
            assert abs(value - expected) <= 5 * sigma
