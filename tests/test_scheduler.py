import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slumix import (
    MixPlan,
    PlanError,
    SchedulerConfig,
    build_plan,
    epoch_batches,
    nested_permutation,
    plan_totals,
    speech_budget,
)
from slumix.scheduler import load_plan, plan_from_dict, plan_to_dict, save_plan

IDS = [f"s{i:04d}" for i in range(1000)]
TEXT = [f"t{i:04d}" for i in range(50)]


def make(scheme, p, epochs=3, seed=1, n=1000, text=None, ordering=None):
    config = SchedulerConfig(scheme=scheme, p=p, epochs=epochs, seed=seed, n_speech=n)
    ordering = ordering if ordering is not None else nested_permutation(IDS[:n], seed)
    return build_plan(config, text if text is not None else TEXT, ordering)


class TestBudget:
    def test_slurp_two_percent(self):
        assert speech_budget(50628, 0.02) == 1013  # 1012.56 rounds half-up

    def test_identity(self):
        assert speech_budget(11514, 1.0) == 11514

    def test_zero(self):
        assert speech_budget(100, 0) == 0

    def test_half_up_at_boundary(self):
        assert speech_budget(1, 0.5) == 1
        assert speech_budget(5, 0.7) == 4  # 3.5 -> 4, no float fuzz
        assert speech_budget(5, 0.3) == 2  # 1.5 -> 2

    def test_monotone_in_p(self):
        budgets = [speech_budget(50628, p) for p in (0, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0)]
        assert budgets == sorted(budgets)

    def test_out_of_range(self):
        with pytest.raises(PlanError):
            speech_budget(10, 1.5)
        with pytest.raises(PlanError):
            speech_budget(10, -0.1)


class TestPermutation:
    def test_same_seed_same_order(self):
        assert nested_permutation(IDS, 9) == nested_permutation(IDS, 9)

    def test_golden_seed7(self):
        # frozen output of the seeded shuffle; guards the PRNG choice
        assert nested_permutation(["a", "b", "c", "d"], 7) == ["c", "a", "b", "d"]

    def test_prefix_nesting(self):
        perm = nested_permutation(IDS, 3)
        small = set(perm[:speech_budget(1000, 0.02)])
        large = set(perm[:speech_budget(1000, 0.05)])
        assert small < large

    def test_duplicates_rejected(self):
        with pytest.raises(PlanError):
            nested_permutation(["a", "a"], 0)


class TestBuildPlan:
    def test_direct_allocation(self):
        plan = make("direct", 0.1, n=100)
        assert [len(e.speech_item_ids) for e in plan.epochs] == [10, 10, 10]

    def test_curriculum_allocation(self):
        plan = make("curriculum", 0.1, n=100)
        assert [len(e.speech_item_ids) for e in plan.epochs] == [0, 0, 30]

    def test_text_only_allocation(self):
        plan = make("text_only", 0.5, n=100)
        assert [len(e.speech_item_ids) for e in plan.epochs] == [0, 0, 0]

    def test_text_once_per_epoch(self):
        plan = make("direct", 0.1)
        for epoch in plan.epochs:
            assert sorted(epoch.text_item_ids) == sorted(TEXT)

    def test_direct_same_subset_reshuffled(self):
        plan = make("direct", 0.05, n=200)
        sets = [frozenset(e.speech_item_ids) for e in plan.epochs]
        assert len(set(sets)) == 1
        assert len({e.speech_item_ids for e in plan.epochs}) > 1

    def test_curriculum_cycles_preserve_multiset(self):
        plan = make("curriculum", 0.1, n=100, epochs=3)
        final = plan.epochs[-1].speech_item_ids
        subset = set(plan.permutation[:10])
        assert set(final) == subset
        for cycle in range(3):
            assert set(final[cycle * 10:(cycle + 1) * 10]) == subset

    def test_budget_larger_than_pool_rejected(self):
        config = SchedulerConfig(scheme="direct", p=1.0, epochs=3, seed=0, n_speech=10)
        with pytest.raises(PlanError):
            build_plan(config, TEXT, ["a", "b"])

    def test_bad_scheme_rejected(self):
        with pytest.raises(PlanError):
            SchedulerConfig(scheme="mixed", p=0.1, epochs=3, seed=0, n_speech=10)

    @pytest.mark.parametrize("field,value,message", [
        *((field, value, f"{field} must be an integer (got {value!r})")
          for field in ("seed", "epochs", "n_speech") for value in (4.5, True, "5")),
        ("p", True, "speech proportion must be a number (got True)"),
        ("p", "0.5", "speech proportion must be a number (got '0.5')"),
    ], ids=[f"{field}_{kind}" for field in ("seed", "epochs", "n_speech")
            for kind in ("fractional", "bool", "string")] + ["p_bool", "p_string"])
    def test_config_number_of_wrong_type_rejected(self, field, value, message):
        # The one check a plan passes through, from `slumix plan`, a grid cell
        # or a plan file: 4.5 would train the seed-4 plan, True one epoch.
        fields = {"scheme": "direct", "p": 0.5, "epochs": 3, "seed": 4, "n_speech": 10}
        with pytest.raises(PlanError) as info:
            SchedulerConfig(**{**fields, field: value})
        assert str(info.value) == message


class TestEpochBatches:
    def test_chunking_keeps_short_tail(self):
        plan = make("direct", 0.0, text=["a", "b", "c", "d", "e"], n=0, ordering=[])
        batches = epoch_batches(plan, 1, 2, seed=0)
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_determinism(self):
        plan = make("direct", 0.1)
        assert epoch_batches(plan, 2, 16, seed=5) == epoch_batches(plan, 2, 16, seed=5)

    def test_slurp_scale_batch_count(self):
        # 11,514 transcripts + 2% of 50,628 recordings = 12,527 items
        n_items = 11514 + speech_budget(50628, 0.02)
        assert n_items == 12527
        assert -(-n_items // 16) == 783
        text = [f"t{i}" for i in range(11514)]
        speech = [f"s{i}" for i in range(50628)]
        plan = make("direct", 0.02, n=50628, text=text,
                    ordering=nested_permutation(speech, 1))
        assert len(epoch_batches(plan, 1, 16, seed=1)) == 783

    def test_modalities_tagged(self):
        plan = make("direct", 0.1, n=100)
        items = [item for batch in epoch_batches(plan, 1, 4, seed=0) for item in batch]
        assert sum(1 for _, m in items if m == "speech") == 10
        assert sum(1 for _, m in items if m == "text") == len(TEXT)

    def test_zero_batch_size_rejected(self):
        plan = make("direct", 0.1)
        with pytest.raises(PlanError):
            epoch_batches(plan, 1, 0, seed=0)

    def test_epoch_out_of_range(self):
        plan = make("direct", 0.1)
        with pytest.raises(PlanError):
            epoch_batches(plan, 4, 8, seed=0)


class TestPlanTotals:
    def test_direct_totals(self):
        plan = make("direct", 0.05, n=11514, ordering=nested_permutation(
            [f"s{i}" for i in range(11514)], 1))
        totals = plan_totals(plan)
        assert totals["per_epoch_speech"] == [576, 576, 576]
        assert totals["total_speech"] == 1728

    def test_curriculum_totals(self):
        plan = make("curriculum", 0.05, n=11514, ordering=nested_permutation(
            [f"s{i}" for i in range(11514)], 1))
        totals = plan_totals(plan)
        assert totals["per_epoch_speech"] == [0, 0, 1728]
        assert totals["total_speech"] == 1728

    def test_text_only_totals(self):
        assert plan_totals(make("text_only", 0.4))["total_speech"] == 0


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([0.02, 0.05, 0.10, 0.25, 0.50, 1.0]),
           epochs=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_equal_exposure(self, p, epochs, seed):
        n = 400
        ordering = nested_permutation(IDS[:n], seed)
        expected = speech_budget(n, p) * epochs
        for_direct = plan_totals(make("direct", p, epochs, seed, n, ordering=ordering))
        for_curr = plan_totals(make("curriculum", p, epochs, seed, n, ordering=ordering))
        assert for_direct["total_speech"] == expected
        assert for_curr["total_speech"] == expected

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_nesting_chain(self, seed):
        perm = nested_permutation(IDS, seed)
        levels = [0.02, 0.05, 0.10, 0.25, 0.50, 1.0]
        prefixes = [set(perm[:speech_budget(1000, p)]) for p in levels]
        for small, large in zip(prefixes, prefixes[1:]):
            assert small <= large

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           scheme=st.sampled_from(["text_only", "direct", "curriculum"]))
    def test_plan_determinism(self, seed, scheme):
        assert make(scheme, 0.25, seed=seed) == make(scheme, 0.25, seed=seed)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_direct_coverage_once_per_epoch(self, seed):
        plan = make("direct", 0.25, seed=seed, n=200)
        for epoch in plan.epochs:
            assert len(set(epoch.speech_item_ids)) == len(epoch.speech_item_ids)


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "plan.json"
        for scheme in ("text_only", "direct", "curriculum"):
            for p in (0.0, 0.25, 1.0):
                for epochs in (1, 3):
                    plan = make(scheme, p, epochs=epochs, n=40)
                    assert plan_from_dict(plan_to_dict(plan)) == plan
                    save_plan(plan, path)
                    assert load_plan(path) == plan
        assert isinstance(load_plan(path), MixPlan)

    def test_file_holds_what_the_plan_is_built_from(self, tmp_path):
        plan = make("curriculum", 0.25, n=40)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        obj = json.loads(path.read_text())
        assert list(obj) == ["kind", "config", "text_item_ids", "permutation"]
        assert obj["text_item_ids"] == TEXT
        assert obj["permutation"] == list(plan.permutation)
