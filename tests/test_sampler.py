"""Unit tests for data generation: sources, the two triplet samplers and
unlabeled pools.

The samplers draw rows block by block straight into what they return, to
hold little more than that. Plain whole-array versions are kept below as
``reference_*``: on every source and at any block size, the samplers must
return the same bits and leave the generator in the same state, so every
seeded output stays the same."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisim import sampler
from trisim.core import ClassPrior, InsufficientDataError, InvalidInputError, LabeledPool, ShapeError
from trisim.risk import DiscreteDomainSpec
from trisim.sampler import (
    GaussianSourceSpec,
    PoolSource,
    draw_labeled,
    make_weak_dataset,
    paper_case_weights,
    sample_triplets_paper_case,
    sample_triplets_rejection,
    sample_unlabeled,
    synth_gaussian_labeled,
)
from trisim.verify import check_acceptance_rate


def reference_draw_rows(source, rng, y):
    """A row of its class for every label of y, positives first."""
    pos = y == 1
    x_pos = source.draw_class(rng, 1, int(pos.sum()))
    x = np.empty(y.shape + x_pos.shape[1:])
    x[pos] = x_pos
    x[~pos] = source.draw_class(rng, -1, int((~pos).sum()))
    return x


def reference_draw_labeled(source, rng, n):
    y = np.where(rng.random(n) < source.prior.pi_plus, 1, -1)
    return reference_draw_rows(source, rng, y), y


def reference_sample_triplets_rejection(source, n, rng):
    out = []
    n_raw = 0
    remaining = n
    while remaining > 0:
        chunk = max(remaining * 2, 16)
        y = np.where(rng.random(3 * chunk) < source.prior.pi_plus, 1, -1).reshape(chunk, 3)
        accept = ~((y[:, 1] == y[:, 2]) & (y[:, 1] != y[:, 0]))
        cutoff = chunk
        if accept.sum() >= remaining:
            cutoff = int(np.searchsorted(np.cumsum(accept), remaining)) + 1
        accepted = y[:cutoff][accept[:cutoff]]
        out.append(reference_draw_rows(source, rng, accepted))
        n_raw += cutoff
        remaining -= len(accepted)
    return np.concatenate(out, axis=0), n_raw


def reference_sample_triplets_paper_case(source, n, rng):
    weights = paper_case_weights(source.prior)
    cases = rng.choice(4, size=n, p=weights)
    tied_label = np.where(cases % 2 == 0, 1, -1)

    third, _ = reference_draw_labeled(source, rng, n)
    triplets = np.empty((n, 3, third.shape[1]))
    triplets[:, :2] = reference_draw_rows(source, rng, np.repeat(tied_label[:, None], 2, axis=1))
    triplets[:, 2] = third
    swap = cases >= 2
    triplets[swap] = triplets[swap][:, [0, 2, 1]]
    return triplets


def _spec(pi=0.4):
    return GaussianSourceSpec(
        dim=2,
        mu_plus=np.array([2.0, 0.0]),
        mu_minus=np.array([-2.0, 0.0]),
        sigma=1.0,
        prior=ClassPrior(pi),
    )


class TestSources:
    def test_gaussian_spec_validation(self):
        with pytest.raises(InvalidInputError):
            GaussianSourceSpec(
                dim=2,
                mu_plus=np.zeros(2),
                mu_minus=np.zeros(2),
                sigma=0.0,
                prior=ClassPrior(0.4),
            )
        with pytest.raises(ShapeError):
            GaussianSourceSpec(
                dim=2,
                mu_plus=np.zeros(3),
                mu_minus=np.zeros(2),
                sigma=1.0,
                prior=ClassPrior(0.4),
            )

    def test_gaussian_label_frequencies(self):
        src = _spec(0.3)
        _, positive = draw_labeled(src, np.random.default_rng(0), 20_000)
        assert positive.dtype == bool
        assert np.mean(positive) == pytest.approx(0.3, abs=0.02)

    def test_gaussian_class_means(self):
        src = _spec()
        x = src.draw_class(np.random.default_rng(1), 1, 5000)
        np.testing.assert_allclose(x.mean(axis=0), [2.0, 0.0], atol=0.1)

    def test_pool_source_prior_override(self):
        pool = LabeledPool(x=np.zeros((4, 1)), y=np.array([1, 1, 1, -1]))
        assert PoolSource(pool).prior.pi_plus == pytest.approx(0.75)
        assert PoolSource(pool, prior=ClassPrior(0.4)).prior.pi_plus == 0.4

    def test_pool_source_missing_class_raises(self):
        pool = LabeledPool(x=np.zeros((2, 1)), y=np.array([1, 1]))
        with pytest.raises(InsufficientDataError):
            PoolSource(pool).draw_class(np.random.default_rng(0), -1, 3)

    def test_pool_source_follows_declared_prior(self):
        # a 75/25 pool resampled to a declared prior of 0.4
        pool = LabeledPool(x=np.arange(4.0)[:, None], y=np.array([1, 1, 1, -1]))
        src = PoolSource(pool, prior=ClassPrior(0.4))
        x, positive = draw_labeled(src, np.random.default_rng(0), 20_000)
        assert np.mean(positive) == pytest.approx(0.4, abs=0.02)
        # every row keeps its class, and the positive rows are drawn uniformly
        np.testing.assert_array_equal(pool.y[x[:, 0].astype(int)] == 1, positive)
        counts = np.bincount(x[positive, 0].astype(int), minlength=3)
        np.testing.assert_allclose(counts / counts.sum(), 1 / 3, atol=0.02)

    def test_discrete_source_frequencies(self):
        src = DiscreteDomainSpec(
            np.array([0.9, 0.1]), np.array([0.1, 0.9]), ClassPrior(0.4), np.zeros(2)
        )
        x = src.draw_class(np.random.default_rng(3), 1, 10_000)
        assert np.mean(x[:, 0] == 0.0) == pytest.approx(0.9, abs=0.02)


class TestRejectionSampler:
    def test_shapes_and_determinism(self):
        src = _spec()
        t1, _ = sample_triplets_rejection(src, 50, np.random.default_rng(7))
        t2, _ = sample_triplets_rejection(src, 50, np.random.default_rng(7))
        assert t1.shape == (50, 3, 2)
        np.testing.assert_array_equal(t1, t2)

    def test_acceptance_rate_tracks_closed_form(self):
        prior = ClassPrior(0.3)
        src = DiscreteDomainSpec(np.array([1.0]), np.array([1.0]), prior, np.zeros(1))
        _, stats = sample_triplets_rejection(src, 50_000, np.random.default_rng(0))
        expected = 1.0 - prior.pi_plus * prior.pi_minus
        assert stats.acceptance_rate == pytest.approx(expected, abs=0.01)
        assert stats.n_accepted == 50_000
        assert stats.n_raw >= stats.n_accepted

    def test_rejects_nonpositive_count(self):
        with pytest.raises(InvalidInputError):
            sample_triplets_rejection(_spec(), 0, np.random.default_rng(0))


class TestPaperCaseSampler:
    def test_case_weights_pinned(self):
        # (0.16, 0.36, 0.16, 0.36) / 1.04 at pi = 0.4
        w = paper_case_weights(ClassPrior(0.4))
        np.testing.assert_allclose(w, np.array([0.16, 0.36, 0.16, 0.36]) / 1.04)
        assert w.sum() == pytest.approx(1.0)

    def test_shapes_and_determinism(self):
        src = _spec()
        t1 = sample_triplets_paper_case(src, 40, np.random.default_rng(9))
        t2 = sample_triplets_paper_case(src, 40, np.random.default_rng(9))
        assert t1.shape == (40, 3, 2)
        np.testing.assert_array_equal(t1, t2)

    def test_companion_symmetry(self):
        # cases 2 and 3 mirror cases 0 and 1, so the two companion slots have
        # the same marginal and their mean features agree
        src = _spec()
        t = sample_triplets_paper_case(src, 20_000, np.random.default_rng(4))
        gap = t[:, 1, 0].mean() - t[:, 2, 0].mean()
        assert abs(gap) < 0.1


class TestDatasetAssembly:
    def test_sample_unlabeled_shape(self):
        x = sample_unlabeled(_spec(), 30, np.random.default_rng(0))
        assert x.shape == (30, 2)

    @pytest.mark.parametrize("kind", ["rejection", "paper_case"])
    def test_make_weak_dataset_stamps_sampler(self, kind):
        data = make_weak_dataset(_spec(), 20, 30, kind, seed=5)
        assert data.sampler_kind == kind
        assert data.n_triplets == 20
        assert data.n_unlabeled == 30

    @pytest.mark.parametrize("kind", ["rejection", "paper_case"])
    def test_make_weak_dataset_follows_declared_pool_prior(self, kind):
        # at pi = 0.4 the points at +1 and -1 average 0.4 - 0.6 = -0.2, while
        # the pool's own label counts would give 0.75 - 0.25 = 0.5
        pool = LabeledPool(
            x=np.repeat([[1.0], [-1.0]], [750, 250], axis=0), y=np.repeat([1, -1], [750, 250])
        )
        source = PoolSource(pool, prior=ClassPrior(0.4))
        data = make_weak_dataset(source, 5000, 5000, kind, seed=1)
        assert data.unlabeled.mean() == pytest.approx(-0.2, abs=0.1)

    def test_make_weak_dataset_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            make_weak_dataset(_spec(), 5, 5, "bogus", seed=0)

    def test_make_weak_dataset_deterministic(self):
        a = make_weak_dataset(_spec(), 10, 10, "rejection", seed=3)
        b = make_weak_dataset(_spec(), 10, 10, "rejection", seed=3)
        np.testing.assert_array_equal(a.triplets, b.triplets)
        np.testing.assert_array_equal(a.unlabeled, b.unlabeled)

    def test_synth_gaussian_labeled(self):
        pool = synth_gaussian_labeled(_spec(), 100, seed=0)
        assert len(pool) == 100
        assert pool.x.shape == (100, 2)
        again = synth_gaussian_labeled(_spec(), 100, seed=0)
        np.testing.assert_array_equal(pool.x, again.x)


def _source(kind, pi):
    prior = ClassPrior(pi)
    if kind == "gaussian":
        return GaussianSourceSpec(3, np.array([1.0, -2.0, 0.5]), np.array([-1.0, 0.0, 3.0]), 1.5, prior)
    if kind == "pool":
        pool = LabeledPool(x=np.arange(14.0).reshape(7, 2), y=np.array([1, -1, 1, 1, -1, -1, 1]))
        return PoolSource(pool, prior=prior)
    return DiscreteDomainSpec(np.array([0.5, 0.3, 0.2]), np.array([0.1, 0.1, 0.8]), prior, np.zeros(3))


def _assert_bits_equal(a, b):
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


class TestBlockContract:
    """The source contract the samplers' block draws rely on: n rows drawn
    in consecutive blocks, joined, equal one draw of n rows and leave the
    generator in the same state. Odd blocks cover the 32-bit halves that
    the pool source's integer draws buffer in the generator."""

    @pytest.mark.parametrize("label", [1, -1])
    @pytest.mark.parametrize("kind", ["gaussian", "pool", "discrete"])
    def test_blocks_join_to_one_draw(self, kind, label):
        src = _source(kind, 0.4)
        sizes = [0, 1, 7, 3, 64, 0, 182]
        whole, blocks = np.random.default_rng(11), np.random.default_rng(11)
        x = src.draw_class(whole, label, sum(sizes))
        _assert_bits_equal(x, np.concatenate([src.draw_class(blocks, label, m) for m in sizes]))
        assert whole.bit_generator.state == blocks.bit_generator.state


class TestStreamIdentity:
    """Each sampler against its reference_* copy: same bits, same labels,
    same n_raw, and the generator left in the same state."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["gaussian", "pool", "discrete"]),
        pi=st.sampled_from([0.05, 0.2, 0.4, 0.5001, 0.6, 0.95]),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_samplers_match_their_references(self, kind, pi, n, seed):
        src = _source(kind, pi)
        new, ref = np.random.default_rng(seed), np.random.default_rng(seed)

        x, positive = draw_labeled(src, new, n)
        x_ref, y_ref = reference_draw_labeled(src, ref, n)
        _assert_bits_equal(x, x_ref)
        assert positive.dtype == bool
        np.testing.assert_array_equal(np.where(positive, 1, -1), y_ref)

        triplets, stats = sample_triplets_rejection(src, n, new)
        triplets_ref, n_raw_ref = reference_sample_triplets_rejection(src, n, ref)
        _assert_bits_equal(triplets, triplets_ref)
        assert stats.n_raw == n_raw_ref

        _assert_bits_equal(
            sample_triplets_paper_case(src, n, new), reference_sample_triplets_paper_case(src, n, ref)
        )
        _assert_bits_equal(sample_unlabeled(src, n, new), reference_draw_labeled(src, ref, n)[0])
        assert new.bit_generator.state == ref.bit_generator.state

    def test_rejection_second_chunk(self):
        # the first chunk (18 raw draws for 9 triplets) accepts too few at
        # this seed, so the quota is filled from a second chunk
        src = DiscreteDomainSpec(np.array([0.5, 0.5]), np.array([0.2, 0.8]), ClassPrior(0.5001), np.zeros(2))
        new, ref = np.random.default_rng(324), np.random.default_rng(324)
        triplets, stats = sample_triplets_rejection(src, 9, new)
        triplets_ref, n_raw_ref = reference_sample_triplets_rejection(src, 9, ref)
        assert stats.n_raw == n_raw_ref == 19
        _assert_bits_equal(triplets, triplets_ref)
        assert new.bit_generator.state == ref.bit_generator.state

    def test_synth_labels_stay_int(self):
        pool = synth_gaussian_labeled(_spec(), 50, seed=3)
        x_ref, y_ref = reference_draw_labeled(_spec(), np.random.default_rng(np.random.SeedSequence(3)), 50)
        _assert_bits_equal(pool.x, x_ref)
        _assert_bits_equal(pool.y, y_ref)


@pytest.fixture(scope="class", params=[1, 7])
def small_blocks(request):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "BLOCK", request.param)
        yield


@pytest.mark.usefixtures("small_blocks")
class TestStreamIdentityInSmallBlocks(TestStreamIdentity):
    """TestStreamIdentity with blocks of 1 and of 7 mask entries, so every
    draw crosses block boundaries."""


class _CountingSource:
    """A source that counts the rows its draw_class hands out."""

    def __init__(self, source):
        self.source, self.prior, self.rows = source, source.prior, 0

    def draw_class(self, rng, label, n):
        self.rows += n
        return self.source.draw_class(rng, label, n)


@pytest.mark.parametrize("n", [1, 9, 1000])
@pytest.mark.parametrize("kind", ["gaussian", "pool", "discrete"])
def test_samplers_draw_only_the_rows_they_return(kind, n):
    # at seed 324 the rejection sampler's first chunk is too short for 9
    # triplets, so a second chunk is drawn
    src, rng = _CountingSource(_source(kind, 0.5001)), np.random.default_rng(324)
    for sample, rows in ((sample_triplets_rejection, 3 * n), (sample_triplets_paper_case, 3 * n),
                         (sample_unlabeled, n)):
        src.rows = 0
        sample(src, n, rng)
        assert src.rows == rows, sample.__name__


def _traced_peak_mb(fn):
    fn()  # first call outside the trace: numpy's lazy set-up is not the sampler's
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Traced peaks of sampling at 100k triplets, deterministic under the
    seed. Drawing whole class arrays and copying the accepted rows out, the
    rejection sampler peaked at 10.4 MB on the featureless domain (as did the
    acceptance oracle) and at 19.8 MB on a pool; paper_case peaked at
    4.9 MB. Drawn block by block into the rows they keep, they peaked at
    3.9 MB, 6.9 MB and 3.9 MB; drawing features for the kept triplets alone,
    at 3.8, 6.3 and 3.8 MB, of which the returned triplets are 2.4, 4.8 and
    2.4 MB. The acceptance oracle, sampling labels alone, peaks at 1.2 MB.
    Each bound is the measured peak plus a small margin."""

    def test_rejection_on_featureless_domain(self):
        domain = DiscreteDomainSpec(np.ones(1), np.ones(1), ClassPrior(0.2), np.zeros(1))
        peak = _traced_peak_mb(lambda: sample_triplets_rejection(domain, 100_000, np.random.default_rng(0)))
        assert peak < 4.2

    def test_rejection_on_pool(self):
        src = _source("pool", 0.4)
        peak = _traced_peak_mb(lambda: sample_triplets_rejection(src, 100_000, np.random.default_rng(0)))
        assert peak < 6.6

    def test_paper_case_frees_cases_and_third_member(self):
        # 8.3 MB for the reference; keeping `cases` alive adds 0.8 MB
        domain = DiscreteDomainSpec(np.array([0.5, 0.5]), np.array([0.2, 0.8]), ClassPrior(0.4), np.zeros(2))
        peak = _traced_peak_mb(lambda: sample_triplets_paper_case(domain, 100_000, np.random.default_rng(0)))
        assert peak < 4.2

    def test_acceptance_oracle_keeps_no_triplets(self):
        # a source with features would add 2.4 MB of triplets per prior
        assert _traced_peak_mb(lambda: check_acceptance_rate(seed=0)) < 1.5
