"""Tests for the sharded, cached, streaming procedural dataset builds."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import databuild, perfstats
from repro.core.benchmark import (
    BenchmarkIntegrityError,
    BuildExpectations,
    build_chipvqa,
    build_chipvqa_scaled,
    validate_chipvqa,
)
from repro.core.executor import dataset_from_spec
from repro.core.question import CATEGORY_COUNTS, TOTAL_QUESTIONS


@pytest.fixture(autouse=True)
def _pristine_provider_registry():
    """Undo sample-salted provider registrations after each test.

    ``ensure_sample_provider`` registers ``<model>+s<i>`` clones in the
    global default registry; other test modules assert its exact
    contents, so leave it as found.
    """
    from repro.models.providers import default_registry

    before = dict(default_registry._factories)
    yield
    default_registry._factories.clear()
    default_registry._factories.update(before)


# -- fixed point and variants -------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 97])
def test_scaled_142_is_a_fixed_point_of_the_seed_dataset(seed):
    scaled = build_chipvqa_scaled(TOTAL_QUESTIONS, seed)
    assert scaled.content_digest() == build_chipvqa().content_digest()


def test_cycle_zero_questions_are_canonical_verbatim():
    canonical = {q.qid: q for q in build_chipvqa()}
    for question in build_chipvqa_scaled(TOTAL_QUESTIONS, 3):
        assert question == canonical[question.qid]


def test_variants_preserve_gold_text_and_structure():
    canonical = {q.qid: q for q in build_chipvqa()}
    scaled = build_chipvqa_scaled(3 * TOTAL_QUESTIONS, 5)
    variants = [q for q in scaled if "~c" in q.qid]
    assert variants
    for variant in variants:
        base = canonical[variant.qid.split("~c")[0]]
        assert variant.category is base.category
        assert variant.question_type is base.question_type
        assert variant.gold_text == base.gold_text
        assert variant.visual == base.visual
        if base.is_multiple_choice:
            assert sorted(variant.choices) == sorted(base.choices)
        assert 0.05 <= variant.difficulty <= 0.95


def test_different_seeds_give_different_variants():
    a = build_chipvqa_scaled(2 * TOTAL_QUESTIONS, 1)
    b = build_chipvqa_scaled(2 * TOTAL_QUESTIONS, 2)
    assert a.content_digest() != b.content_digest()


def test_variant_derivation_is_deterministic():
    question = build_chipvqa()[0]
    assert (databuild.derive_variant(question, 4, 9)
            == databuild.derive_variant(question, 4, 9))
    assert (databuild.derive_variant(question, 4, 9).qid
            != databuild.derive_variant(question, 5, 9).qid)


# -- composition properties ---------------------------------------------------


@given(total=st.integers(min_value=1, max_value=600),
       seed=st.integers(min_value=0, max_value=10_000),
       shard_size=st.integers(min_value=1, max_value=200))
@settings(max_examples=25, deadline=None)
def test_scaled_builds_have_exact_expected_composition(total, seed,
                                                       shard_size):
    dataset = build_chipvqa_scaled(total, seed, shard_size=shard_size,
                                   validate=False)
    assert len(dataset) == total
    assert len({q.qid for q in dataset}) == total
    composition = databuild.expected_composition(total)
    assert dataset.category_counts() == composition.category_counts
    assert dataset.type_counts() == composition.type_counts
    assert dataset.mc_counts_by_category() == composition.category_mc_counts
    validate_chipvqa(dataset, BuildExpectations.scaled(total))


@given(total=st.integers(min_value=1, max_value=2000),
       seed=st.integers(min_value=0, max_value=10_000),
       shard_size=st.integers(min_value=20, max_value=300))
@settings(max_examples=20, deadline=None)
def test_every_shard_preserves_table1_proportions_within_rounding(
        total, seed, shard_size):
    for spec in databuild.plan_shards(total, seed, shard_size):
        counts = Counter(q.category
                         for q in databuild.build_shard(spec))
        for category, members in CATEGORY_COUNTS.items():
            expected = spec.size * members / TOTAL_QUESTIONS
            # The interleaved order places family members at
            # near-arithmetic positions, so any window is within
            # rounding (+/- 2 covers both window-edge effects).
            assert abs(counts.get(category, 0) - expected) <= 2, (
                spec, category)


def test_validation_catches_composition_drift():
    dataset = build_chipvqa_scaled(200, 0, validate=False)
    broken = dataset.filter(lambda q: True, name=dataset.name)
    broken._questions = broken._questions[:-1]
    with pytest.raises(BenchmarkIntegrityError):
        validate_chipvqa(broken, BuildExpectations.scaled(200))


def test_canonical_validation_messages_unchanged():
    dataset = build_chipvqa_scaled(141, 0, validate=False)
    with pytest.raises(BenchmarkIntegrityError,
                       match="expected 142 questions, got 141"):
        validate_chipvqa(dataset)


# -- shard order independence and the build cache -----------------------------


@given(seed=st.integers(min_value=0, max_value=10_000),
       order_seed=st.integers(min_value=0, max_value=1 << 30))
@settings(max_examples=10, deadline=None)
def test_shard_builds_are_order_independent(seed, order_seed):
    import random

    specs = databuild.plan_shards(500, seed, 90)
    shuffled = specs[:]
    random.Random(order_seed).shuffle(shuffled)
    by_index = {spec.index: databuild.build_shard(spec)
                for spec in shuffled}
    sequential = [q for i in sorted(by_index) for q in by_index[i]]
    direct = databuild.build_scaled(500, seed, shard_size=90,
                                    validate=False)
    assert [q.qid for q in sequential] == [q.qid for q in direct]


def test_warm_build_cache_serves_identical_shards(tmp_path):
    with perfstats.scope(tmp_path):
        perfstats.reset()
        cold = databuild.build_scaled(426, 8, shard_size=142,
                                      validate=False)
        cold_stats = perfstats.snapshot()[databuild.BUILD_CACHE_NAME]
        assert cold_stats["misses"] == 3
        perfstats.reset()  # drop every memory tier; disk survives
        warm = databuild.build_scaled(426, 8, shard_size=142,
                                      validate=False)
        warm_stats = perfstats.snapshot()[databuild.BUILD_CACHE_NAME]
        assert warm_stats["spill_hits"] == 3
        assert warm_stats["misses"] == 0
    assert warm.content_digest() == cold.content_digest()
    # render specs round-trip through the cache codec
    for a, b in zip(cold, warm):
        assert tuple(b.visual.render_spec) == tuple(a.visual.render_spec)


def test_cache_keys_are_content_addressed_across_build_sizes():
    # Same window, different total -> same key (disk reuse across n).
    a = databuild.ShardSpec(total=500, seed=1, shard_size=100, index=2)
    b = databuild.ShardSpec(total=900, seed=1, shard_size=100, index=2)
    assert a.cache_key() == b.cache_key()
    assert a.cache_key_digest() == b.cache_key_digest()
    # Different seed or window -> different key.
    c = databuild.ShardSpec(total=500, seed=2, shard_size=100, index=2)
    assert c.cache_key() != a.cache_key()


def test_prime_build_cache_builds_then_reuses(tmp_path):
    first = databuild.prime_build_cache(300, 4, cache_dir=tmp_path,
                                        shard_size=100)
    assert first == {"shards": 3, "built": 3, "reused": 0}
    second = databuild.prime_build_cache(300, 4, cache_dir=tmp_path,
                                         shard_size=100)
    assert second == {"shards": 3, "built": 0, "reused": 3}


def test_process_backend_build_matches_serial():
    serial = databuild.build_scaled(284, 6, shard_size=142,
                                    validate=False)
    process = databuild.build_scaled(284, 6, shard_size=142,
                                     backend="process", workers=1,
                                     validate=False)
    assert process.content_digest() == serial.content_digest()


def test_async_backend_rejected_for_builds():
    from repro.core.executor import ExecutorConfigError

    with pytest.raises(ExecutorConfigError):
        databuild.build_scaled(142, 0, backend="async", workers=2,
                               validate=False)


# -- generator versions -------------------------------------------------------


def test_generator_fingerprint_covers_every_family():
    versions = databuild.generator_versions()
    assert set(versions) == {"analog", "architecture", "digital",
                             "manufacturing", "physical"}
    assert len(databuild.generator_fingerprint()) == 16
    # pinned: a moved fingerprint invalidates every cached shard on disk
    assert databuild.generator_fingerprint() == "ae6ae8a3d96c3555"


# -- dataset specs ------------------------------------------------------------


def test_scaled_roots_round_trip_through_dataset_from_spec():
    dataset = build_chipvqa_scaled(284, 5, shard_size=142,
                                   validate=False)
    rebuilt = dataset_from_spec(dataset.build_spec)
    assert rebuilt.content_digest() == dataset.content_digest()
    subset = dataset.by_category(next(iter(CATEGORY_COUNTS)))
    assert dataset_from_spec(subset.build_spec).content_digest() \
        == subset.content_digest()


def test_shard_and_challenge_roots_round_trip():
    shard = databuild.shard_dataset(284, 5, 142, 1)
    assert dataset_from_spec(shard.build_spec).content_digest() \
        == shard.content_digest()
    challenge = databuild.shard_dataset(284, 5, 142, 0, challenge=True)
    rebuilt = dataset_from_spec(challenge.build_spec)
    assert rebuilt.content_digest() == challenge.content_digest()
    assert all(not q.is_multiple_choice for q in rebuilt)


def test_malformed_scaled_roots_rejected():
    with pytest.raises(databuild.ScaleConfigError):
        databuild.parse_scaled_root("chipvqa-scaled:abc:0:10")
    with pytest.raises(databuild.ScaleConfigError):
        databuild.parse_scaled_root("chipvqa-scaled:10:0:5:bogus")
    with pytest.raises(databuild.ScaleConfigError):
        databuild.parse_scaled_root("chipvqa:10")


# -- streaming ----------------------------------------------------------------


def test_streaming_dataset_matches_materialized_build():
    stream = databuild.StreamingDataset(500, 2, shard_size=90)
    assert len(stream) == 500
    assert stream.num_shards == math.ceil(500 / 90)
    streamed = [q.qid for q in stream]
    direct = [q.qid for q in databuild.build_scaled(500, 2,
                                                    shard_size=90,
                                                    validate=False)]
    assert streamed == direct


def test_streaming_peak_residency_is_o_shard_not_o_n():
    shard_size = 60
    # The gauge reads the (global) shard cache's memory tier; start from
    # empty so leftover shards of other builds don't inflate it.
    databuild._SHARD_CACHE.clear()
    stream = databuild.StreamingDataset(1200, 1, shard_size=shard_size)
    for _ in stream.iter_shards():
        pass
    bound = (databuild._SHARD_CACHE.capacity + 1) * shard_size
    assert 0 < stream.peak_resident_questions <= bound
    assert stream.peak_resident_questions < len(stream)


def test_streaming_challenge_recasts_every_shard():
    stream = databuild.StreamingDataset(200, 0, shard_size=80,
                                        challenge=True)
    for shard in stream.iter_shards():
        assert all(not q.is_multiple_choice for q in shard)


# -- the sweep path -----------------------------------------------------------


def test_run_scaled_table2_shapes_and_determinism(tmp_path):
    from repro.core.sweep import run_scaled_table2

    report = run_scaled_table2(["llava-7b"], 284, seed=1, samples=2,
                               shard_size=142,
                               run_dir=tmp_path / "run")
    multi = report.results["llava-7b"]["with_choice"]
    assert multi.sample_count == 2
    assert all(len(s.records) == 284 for s in multi.samples)
    assert [r.qid for r in multi.samples[0].records] \
        == [r.qid for r in multi.samples[1].records]
    assert multi.pass_at_k(2) >= multi.pass_at_k(1)
    again = run_scaled_table2(["llava-7b"], 284, seed=1, samples=2,
                              shard_size=142)
    assert (again.passk_summary((1, 2))["models"]
            == report.passk_summary((1, 2))["models"])


def test_run_scaled_table2_single_sample_matches_direct_evaluation():
    from repro.core.harness import EvaluationHarness
    from repro.core.sweep import run_scaled_table2
    from repro.models.vlm import WITH_CHOICE
    from repro.models.zoo import build_model

    report = run_scaled_table2(["gpt-4o"], 142, seed=0, samples=1,
                               include_challenge=False)
    sampled = report.results["gpt-4o"]["with_choice"].samples[0]
    direct = EvaluationHarness().evaluate(
        build_model("gpt-4o"),
        databuild.shard_dataset(142, 0, 142, 0), WITH_CHOICE)
    assert [(r.qid, r.correct) for r in sampled.records] \
        == [(r.qid, r.correct) for r in direct.records]


def test_sample_salting_reuses_base_for_sample_zero():
    from repro.core.sweep import ensure_sample_provider, \
        sample_provider_name

    assert sample_provider_name("llava-7b", 0) == "llava-7b"
    assert sample_provider_name("llava-7b", 2) == "llava-7b+s2"
    name = ensure_sample_provider("llava-7b", 2)
    from repro.models.providers import create_provider

    provider = create_provider(name)
    assert provider.name == "llava-7b+s2"


def test_sweep_summary_artifact_round_trips(tmp_path):
    from repro.core import results_io
    from repro.core.sweep import run_scaled_table2

    report = run_scaled_table2(["llava-7b"], 142, samples=2,
                               include_challenge=False)
    path = results_io.write_summary(tmp_path / "sweep_summary.json",
                                    report.passk_summary((1, 2)))
    loaded = results_io.read_summary(path)
    assert loaded == report.passk_summary((1, 2))
    corrupted = path.read_text().replace(
        '"samples": 2', '"samples": 3')
    path.write_text(corrupted)
    with pytest.raises(ValueError):
        results_io.read_summary(path)


# -- CLI flags ---------------------------------------------------------------


def test_cli_limit_and_samples_clamp_with_warning(capsys):
    """Counts below 1 are usage errors (exit 2); any count >= 1 is
    taken as given, with no upper clamp."""
    from repro.cli import build_parser
    from tests.test_cli import usage_error

    scaled = ["table2", "--models", "gpt-4o"]
    err = usage_error(scaled + ["--limit", "0"], capsys)
    assert "--limit: must be >= 1 (got 0)" in err
    err = usage_error(scaled + ["--samples", "-3"], capsys)
    assert "--samples: must be >= 1 (got -3)" in err
    args = build_parser().parse_args(scaled + ["--limit", "50",
                                               "--samples", "4"])
    assert (args.limit, args.samples) == (50, 4)


def test_cli_scaled_path_requires_local_provider(capsys):
    from tests.test_cli import usage_error

    err = usage_error(["table2", "--models", "llava-7b", "--limit", "10",
                       "--provider", "remote"], capsys)
    assert "--provider remote applies only to the canonical sweep" in err
