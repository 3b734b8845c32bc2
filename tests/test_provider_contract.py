"""Provider conformance suite: every registry entry honours the contract.

The :class:`~repro.models.providers.ModelProvider` protocol is the seam
the whole evaluation stack (harness, runner, agent, CLI) stands on, so
every provider the default registry can produce is held to the same
contract here: one answer per question in question order, deterministic
replay across independently-built instances, stable content-addressed
fingerprints, and — for the remote-endpoint decorator — correct
fault-boundary behaviour.  The suite also pins the refactor's headline
acceptance criterion: ``run_table2`` over the full zoo through
``LocalProvider`` reproduces the pre-refactor artifacts byte-for-byte.
"""

import asyncio
import hashlib

import pytest

from repro.core.faults import PermanentError, TransientModelError
from repro.core.harness import run_table2
from repro.core.question import Category
from repro.core.runner import ParallelRunner, WorkUnit
from repro.models import (
    WITH_CHOICE,
    AsyncCallScheduler,
    LocalProvider,
    ModelProvider,
    ProviderRegistry,
    RemoteStubProvider,
    as_provider,
    build_model,
    build_vlm,
    build_zoo,
    create_provider,
    provider_names,
)

#: Combined sha256 over the sorted ``*.jsonl`` checkpoint artifacts of a
#: serial full-zoo ``run_table2``, captured on the pre-provider code.
#: The refactored stack must reproduce it byte-for-byte.
GOLDEN_TABLE2_DIGEST = (
    "0cc1564958013cfdc74622cfc12c3c559f8660e6ceadd87b606ec64ef7a39f9f")
GOLDEN_TABLE2_FILES = 24

ALL_PROVIDERS = provider_names()


@pytest.fixture(scope="module")
def digital(chipvqa):
    return list(chipvqa.by_category(Category.DIGITAL))


@pytest.mark.parametrize("name", ALL_PROVIDERS)
class TestRegistryConformance:
    """Every registry entry satisfies the ModelProvider contract."""

    def test_satisfies_protocol(self, name):
        provider = create_provider(name)
        assert isinstance(provider, ModelProvider)
        assert provider.name == name

    def test_one_answer_per_question_in_order(self, name, digital):
        answers = create_provider(name).answer_batch(
            digital, WITH_CHOICE, use_raster=False)
        assert [a.qid for a in answers] == [q.qid for q in digital]

    def test_deterministic_replay(self, name, digital):
        """Two independent builds replay answers byte-identically."""
        first = create_provider(name).answer_batch(
            digital, WITH_CHOICE, use_raster=False)
        second = create_provider(name).answer_batch(
            digital, WITH_CHOICE, use_raster=False)
        assert first == second

    def test_fingerprint_stable_across_builds(self, name):
        assert (create_provider(name).config_fingerprint()
                == create_provider(name).config_fingerprint())

    def test_fingerprint_is_hex_digest(self, name):
        fingerprint = create_provider(name).config_fingerprint()
        assert len(fingerprint) == 64
        int(fingerprint, 16)


class TestFingerprintSeparation:
    def test_registry_fingerprints_are_distinct(self):
        fingerprints = {
            create_provider(name).config_fingerprint()
            for name in ALL_PROVIDERS
        }
        assert len(fingerprints) == len(ALL_PROVIDERS)

    def test_wrapping_changes_fingerprint(self):
        local = build_model("gpt-4o")
        remote = RemoteStubProvider(build_model("gpt-4o"))
        assert local.config_fingerprint() != remote.config_fingerprint()

    def test_remote_configuration_is_in_fingerprint(self):
        base = RemoteStubProvider(build_model("gpt-4o"), seed=1)
        reseeded = RemoteStubProvider(build_model("gpt-4o"), seed=2)
        slower = RemoteStubProvider(build_model("gpt-4o"), seed=1,
                                    base_latency_s=0.5)
        assert (base.config_fingerprint()
                != reseeded.config_fingerprint())
        assert base.config_fingerprint() != slower.config_fingerprint()

class TestLocalProvider:
    def test_rejects_incompatible_model(self):
        with pytest.raises(TypeError):
            LocalProvider(object())

    def test_transparent_attribute_proxy(self):
        provider = build_model("gpt-4o")
        assert isinstance(provider, LocalProvider)
        assert provider.encoder is provider.model.encoder
        assert provider.supports_system_prompt is True

    def test_attribute_writes_reach_the_model(self):
        provider = build_model("gpt-4o")
        provider.temperature = 0.7
        assert provider.model.temperature == 0.7

    def test_as_provider_passes_providers_through(self):
        provider = build_model("gpt-4o")
        assert as_provider(provider) is provider

    def test_as_provider_wraps_raw_models(self):
        raw = build_vlm("gpt-4o")
        provider = as_provider(raw)
        assert isinstance(provider, LocalProvider)
        assert provider.model is raw

    def test_byte_identical_to_wrapped_model(self, digital):
        raw = build_vlm("gpt-4o")
        direct = raw.answer_all(digital, WITH_CHOICE, use_raster=False)
        via_provider = LocalProvider(build_vlm("gpt-4o")).answer_batch(
            digital, WITH_CHOICE, use_raster=False)
        assert direct == via_provider


class TestRemoteStubFaultBoundary:
    """The stub's failures speak the runner's fault vocabulary."""

    def test_transient_fault_recovers_after_crossings(self, digital):
        provider = RemoteStubProvider(
            build_model("gpt-4o"), transient_rate=1.0,
            transient_failures=2)
        for _ in range(2):
            with pytest.raises(TransientModelError):
                provider.answer_batch(digital, WITH_CHOICE,
                                      use_raster=False)
        answers = provider.answer_batch(digital, WITH_CHOICE,
                                        use_raster=False)
        assert [a.qid for a in answers] == [q.qid for q in digital]
        assert provider.faults_injected == 2
        assert provider.calls == 1

    def test_permanent_fault_never_recovers(self, digital):
        provider = RemoteStubProvider(build_model("gpt-4o"),
                                      permanent_rate=1.0)
        for _ in range(3):
            with pytest.raises(PermanentError):
                provider.answer_batch(digital, WITH_CHOICE,
                                      use_raster=False)
        assert provider.calls == 0

    def test_fault_pattern_is_seed_deterministic(self, digital):
        def outcomes(seed):
            provider = RemoteStubProvider(
                build_model("gpt-4o"), transient_rate=0.5, seed=seed)
            pattern = []
            for factor in (1, 2, 4, 8, 16):
                try:
                    provider.answer_batch(digital, WITH_CHOICE, factor,
                                          use_raster=False)
                    pattern.append("ok")
                except TransientModelError:
                    pattern.append("429")
            return pattern

        assert outcomes(seed=7) == outcomes(seed=7)
        assert "ok" in outcomes(seed=7) and "429" in outcomes(seed=7)

    def test_latency_is_simulated_not_slept_in_tests(self, digital):
        sleeps = []
        provider = RemoteStubProvider(
            build_model("gpt-4o"), base_latency_s=0.25, jitter_s=0.5,
            sleep=sleeps.append)
        provider.answer_batch(digital, WITH_CHOICE, use_raster=False)
        assert len(sleeps) == 1
        assert 0.25 <= sleeps[0] <= 0.75
        assert provider.simulated_latency_s == sleeps[0]

    def test_healthy_stub_is_answer_transparent(self, digital):
        """Latency and jitter shape timing only — never answers."""
        stub = RemoteStubProvider(build_model("gpt-4o"),
                                  base_latency_s=1.0, jitter_s=1.0,
                                  sleep=lambda _s: None)
        direct = build_model("gpt-4o").answer_batch(
            digital, WITH_CHOICE, use_raster=False)
        assert stub.answer_batch(digital, WITH_CHOICE,
                                 use_raster=False) == direct

    def test_runner_retry_absorbs_transient_faults(self, chipvqa):
        """End to end: a flaky endpoint plus the runner's retry path
        still produces the local provider's exact records."""
        digital_ds = chipvqa.by_category(Category.DIGITAL)
        flaky = RemoteStubProvider(build_model("gpt-4o"),
                                   transient_rate=1.0,
                                   transient_failures=1)
        flaky_unit = WorkUnit(model=flaky, dataset=digital_ds,
                              setting=WITH_CHOICE)
        base_unit = WorkUnit(model=build_model("gpt-4o"),
                             dataset=digital_ds, setting=WITH_CHOICE)
        outcome = ParallelRunner().run([flaky_unit]).raise_on_failure()
        baseline = ParallelRunner().run([base_unit]).raise_on_failure()
        assert (outcome.result_for(flaky_unit).records
                == baseline.result_for(base_unit).records)
        assert flaky.faults_injected > 0


class TestRegistry:
    def test_unknown_name_raises_with_known_names(self):
        registry = ProviderRegistry()
        with pytest.raises(KeyError):
            registry.create("nope")

    def test_duplicate_registration_rejected(self):
        registry = ProviderRegistry()
        registry.register("m", lambda: build_model("gpt-4o"))
        with pytest.raises(ValueError):
            registry.register("m", lambda: build_model("gpt-4o"))
        registry.register("m", lambda: build_model("llava-7b"),
                          replace=True)

    def test_factory_name_mismatch_rejected(self):
        registry = ProviderRegistry()
        registry.register("wrong", lambda: build_model("gpt-4o"))
        with pytest.raises(ValueError):
            registry.create("wrong")

    def test_zoo_and_agent_are_registered(self):
        names = provider_names()
        assert "gpt-4o" in names
        assert "agent-gpt4turbo+gpt4o" in names
        assert len(names) == 13

    def test_work_unit_resolves_registry_names(self, chipvqa):
        """Units built from serialized registry names run identically
        to units built from provider objects."""
        digital_ds = chipvqa.by_category(Category.DIGITAL)
        by_name = WorkUnit(model="gpt-4o", dataset=digital_ds,
                           setting=WITH_CHOICE)
        by_object = WorkUnit(model=build_model("gpt-4o"),
                             dataset=digital_ds, setting=WITH_CHOICE)
        assert by_name.provider.name == "gpt-4o"
        assert (by_name.provider.config_fingerprint()
                == by_object.provider.config_fingerprint())
        runner = ParallelRunner()
        named = runner.run([by_name]).raise_on_failure()
        direct = runner.run([by_object]).raise_on_failure()
        assert (named.result_for(by_name).records
                == direct.result_for(by_object).records)


class TestGoldenByteIdentity:
    def test_table2_artifacts_match_pre_refactor_bytes(self, tmp_path):
        """The acceptance pin: a serial full-zoo ``run_table2`` through
        the provider stack writes checkpoint artifacts byte-identical
        to the pre-provider code (digest captured on the seed)."""
        run_table2(build_zoo(), workers=1, run_dir=tmp_path)
        files = sorted(tmp_path.glob("*.jsonl"))
        assert len(files) == GOLDEN_TABLE2_FILES
        combined = hashlib.sha256()
        for path in files:
            combined.update(
                path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        assert combined.hexdigest() == GOLDEN_TABLE2_DIGEST

    def test_manifest_records_provider_identity(self, chipvqa, tmp_path):
        digital_ds = chipvqa.by_category(Category.DIGITAL)
        provider = build_model("gpt-4o")
        runner = ParallelRunner(run_dir=tmp_path)
        runner.run([WorkUnit(model=provider, dataset=digital_ds,
                             setting=WITH_CHOICE)]).raise_on_failure()
        import json

        manifest = json.loads((tmp_path / "manifest.json").read_text())
        (entry,) = manifest["units"]
        assert entry["provider"] == "gpt-4o"
        assert (entry["provider_fingerprint"]
                == provider.config_fingerprint())


@pytest.mark.parametrize("name", ALL_PROVIDERS)
class TestAsyncConformance:
    """Every registry entry passes the conformance suite through the
    async call path: ``AsyncCallScheduler.call`` runs a provider without
    ``answer_batch_async`` on a worker thread, and ordering and
    deterministic replay hold when driven from an asyncio event loop."""

    def test_async_one_answer_per_question_in_order(self, name, digital):
        answers = asyncio.run(AsyncCallScheduler().call(
            create_provider(name), digital, WITH_CHOICE, use_raster=False))
        assert [a.qid for a in answers] == [q.qid for q in digital]

    def test_async_replay_matches_sync(self, name, digital):
        sync_answers = create_provider(name).answer_batch(
            digital, WITH_CHOICE, use_raster=False)
        async_answers = asyncio.run(AsyncCallScheduler().call(
            create_provider(name), digital, WITH_CHOICE, use_raster=False))
        assert async_answers == sync_answers


class TestAsyncRemoteStubFaultBoundary:
    """The stub's native async interface speaks the exact same fault
    vocabulary as the sync transport: transient faults recover after
    the scripted crossings, permanent faults never do, and rate-limit
    rejections surface as retryable ``TransientModelError``."""

    def test_transient_fault_recovers_after_crossings(self, digital):
        provider = RemoteStubProvider(build_model("gpt-4o"),
                                      transient_rate=1.0,
                                      transient_failures=2)

        async def drive():
            outcomes = []
            for _ in range(3):
                try:
                    await provider.answer_batch_async(
                        digital, WITH_CHOICE, use_raster=False)
                    outcomes.append("ok")
                except TransientModelError:
                    outcomes.append("transient")
            return outcomes

        assert asyncio.run(drive()) == ["transient", "transient", "ok"]
        assert provider.faults_injected == 2
        assert provider.calls == 1

    def test_permanent_fault_never_recovers(self, digital):
        provider = RemoteStubProvider(build_model("gpt-4o"),
                                      permanent_rate=1.0)

        async def drive():
            for _ in range(2):
                with pytest.raises(PermanentError):
                    await provider.answer_batch_async(
                        digital, WITH_CHOICE, use_raster=False)

        asyncio.run(drive())
        assert provider.calls == 0

    def test_async_matches_sync_fault_pattern(self, digital):
        """Fault draws are keyed, not stateful randomness: the async
        transport replays the same per-key inject/pass pattern as
        sync."""

        def pattern(provider, via_async):
            outcomes = []
            for factor in (1, 2, 3, 4):
                try:
                    if via_async:
                        asyncio.run(provider.answer_batch_async(
                            digital, WITH_CHOICE, factor,
                            use_raster=False))
                    else:
                        provider.answer_batch(
                            digital, WITH_CHOICE, factor,
                            use_raster=False)
                    outcomes.append("ok")
                except TransientModelError:
                    outcomes.append("fault")
            return outcomes

        make = lambda: RemoteStubProvider(  # noqa: E731
            build_model("gpt-4o"), transient_rate=0.5, seed=11)
        assert pattern(make(), via_async=True) == pattern(
            make(), via_async=False)

    def test_rate_limit_rejects_with_transient_429(self, digital):
        clock = {"now": 0.0}
        provider = RemoteStubProvider(build_model("gpt-4o"),
                                      rate_limit_per_s=1.0,
                                      rate_limit_burst=1,
                                      rate_clock=lambda: clock["now"])

        async def drive():
            await provider.answer_batch_async(
                digital, WITH_CHOICE, use_raster=False)
            with pytest.raises(TransientModelError,
                               match="simulated 429 rate limit"):
                await provider.answer_batch_async(
                    digital, WITH_CHOICE, 2, use_raster=False)
            clock["now"] = 1.0  # bucket refills one token
            await provider.answer_batch_async(
                digital, WITH_CHOICE, 2, use_raster=False)

        asyncio.run(drive())
        assert provider.rate_limited == 1
        assert provider.calls == 2

    def test_async_latency_awaits_instead_of_blocking(self, digital):
        """Simulated latency on the async path goes through the
        injectable coroutine sleep, never ``time.sleep``."""
        waited = []

        async def record(seconds):
            waited.append(seconds)

        provider = RemoteStubProvider(build_model("gpt-4o"),
                                      base_latency_s=0.25,
                                      async_sleep=record,
                                      sleep=pytest.fail)
        asyncio.run(provider.answer_batch_async(
            digital, WITH_CHOICE, use_raster=False))
        assert waited and waited[0] >= 0.25

    def test_rate_limit_knobs_excluded_from_fingerprint(self):
        """Rate limits and per-call jitter shape transport scheduling,
        not answers; fingerprints (hence cache keys) ignore them."""
        plain = RemoteStubProvider(build_model("gpt-4o"))
        limited = RemoteStubProvider(build_model("gpt-4o"),
                                     rate_limit_per_s=2.0,
                                     rate_limit_burst=3,
                                     jitter_per_call=True)
        assert (plain.config_fingerprint()
                == limited.config_fingerprint())
