import pytest

import slumix.crosslingual
from conftest import make_corpus, make_utt
from slumix import ConfigError, CorpusFormatError, make_crosslingual_corpus
from slumix.corpus import filter_split
from slumix.crosslingual import CROSSLINGUAL_MODES, CorpusParts


def lang_corpus(lang, n_train=40, speech=True, name=None):
    records = []
    for i in range(n_train):
        records.append(make_utt(f"{lang}-{i:03d}", f"{lang} sentence {i}",
                                speech=speech, lang=lang))
    records.append(make_utt(f"{lang}-test", f"{lang} test sentence",
                            split="test", speech=speech, lang=lang))
    return make_corpus(records, name=name or f"corpus-{lang}", lang=lang)


@pytest.fixture
def source():
    return lang_corpus("fr", n_train=60)


@pytest.fixture
def targets():
    return [lang_corpus("de", n_train=30), lang_corpus("ko", n_train=30)]


@pytest.fixture
def massive():
    return [lang_corpus("de", n_train=25, speech=False, name="massive-de"),
            lang_corpus("ko", n_train=25, speech=False, name="massive-ko")]


class TestZeroShot:
    def test_source_only(self, source, targets):
        combined = make_crosslingual_corpus(source, targets, mode="zero_shot")
        assert all(r.lang == "fr" for r in combined.records)
        assert len(combined) == 60  # train split only

    def test_no_target_ids(self, source, targets):
        combined = make_crosslingual_corpus(source, targets, mode="zero_shot")
        target_ids = {r.id for t in targets for r in t.records}
        combined_ids = {r.id.split("/", 1)[1] for r in combined.records}
        assert combined_ids.isdisjoint(target_ids)
        assert not any(r.lang in ("de", "ko") for r in combined.records)


class TestFewShot:
    def test_transcripts_only_counts(self, source, targets):
        combined = make_crosslingual_corpus(source, targets, mode="T",
                                            fewshot_pairs=10, seed=1)
        de = [r for r in combined.records if r.lang == "de"]
        ko = [r for r in combined.records if r.lang == "ko"]
        assert len(de) == len(ko) == 10
        assert not any(r.has_speech for r in de + ko)
        assert len(combined) == 60 + 20

    def test_transcripts_plus_speech_counts(self, source, targets):
        combined = make_crosslingual_corpus(source, targets, mode="T_S",
                                            fewshot_pairs=10, seed=1)
        de = [r for r in combined.records if r.lang == "de"]
        assert len(de) == 10
        assert all(r.has_speech for r in de)

    def test_t_and_ts_use_same_sample(self, source, targets):
        t = make_crosslingual_corpus(source, targets, mode="T",
                                     fewshot_pairs=10, seed=1)
        ts = make_crosslingual_corpus(source, targets, mode="T_S",
                                      fewshot_pairs=10, seed=1)
        ids_t = {r.id for r in t.records if r.lang == "de"}
        ids_ts = {r.id for r in ts.records if r.lang == "de"}
        assert ids_t == ids_ts

    def test_prefix_nested_across_sizes(self, source, targets):
        small = make_crosslingual_corpus(source, targets, mode="T",
                                         fewshot_pairs=5, seed=1)
        large = make_crosslingual_corpus(source, targets, mode="T",
                                         fewshot_pairs=15, seed=1)
        ids_small = {r.id for r in small.records if r.lang == "de"}
        ids_large = {r.id for r in large.records if r.lang == "de"}
        assert ids_small < ids_large

    def test_deterministic(self, source, targets):
        a = make_crosslingual_corpus(source, targets, mode="T_S",
                                     fewshot_pairs=10, seed=4)
        b = make_crosslingual_corpus(source, targets, mode="T_S",
                                     fewshot_pairs=10, seed=4)
        assert a.records == b.records

    def test_not_enough_pairs(self, source, targets):
        with pytest.raises(ConfigError, match="speech-paired"):
            make_crosslingual_corpus(source, targets, mode="T", fewshot_pairs=500)


class TestMassiveAugmented:
    def test_t_m_appends_full_target_text(self, source, targets, massive):
        combined = make_crosslingual_corpus(source, targets, massive, mode="T_M",
                                            fewshot_pairs=10, seed=1)
        de_massive = [r for r in combined.records
                      if r.lang == "de" and r.id.startswith("massive-de/")]
        assert len(de_massive) == 25
        assert not any(r.has_speech for r in de_massive)
        assert len(combined) == 60 + 2 * 10 + 2 * 25

    def test_t_s_m(self, source, targets, massive):
        combined = make_crosslingual_corpus(source, targets, massive, mode="T_S_M",
                                            fewshot_pairs=10, seed=1)
        de_fewshot = [r for r in combined.records
                      if r.lang == "de" and not r.id.startswith("massive-de/")]
        assert all(r.has_speech for r in de_fewshot)

    def test_t_s_m_rebuilds_each_record_once(self, source, targets, massive, monkeypatch):
        calls = []
        utterance = slumix.crosslingual.Utterance

        def counting(*args):
            calls.append(args)
            return utterance(*args)

        monkeypatch.setattr(slumix.crosslingual, "Utterance", counting)
        combined = make_crosslingual_corpus(source, targets, massive, mode="T_S_M",
                                            fewshot_pairs=10, seed=1)
        assert 0 < len(calls) <= len(combined)

    def test_missing_massive_rejected(self, source, targets):
        with pytest.raises(ConfigError, match="requires"):
            make_crosslingual_corpus(source, targets, None, mode="T_M",
                                     fewshot_pairs=10)

    def test_missing_lang_rejected(self, source, targets, massive):
        with pytest.raises(ConfigError, match="ko"):
            make_crosslingual_corpus(source, targets, massive[:1], mode="T_M",
                                     fewshot_pairs=10)


class TestNoSource:
    def test_no_source_t(self, source, targets):
        combined = make_crosslingual_corpus(source, targets, mode="no_source_T",
                                            fewshot_pairs=10, seed=1)
        assert not any(r.lang == "fr" for r in combined.records)
        assert len(combined) == 20

    def test_no_source_t_s_m(self, source, targets, massive):
        combined = make_crosslingual_corpus(source, targets, massive,
                                            mode="no_source_T_S_M",
                                            fewshot_pairs=10, seed=1)
        assert not any(r.lang == "fr" for r in combined.records)
        assert len(combined) == 2 * 10 + 2 * 25


class TestValidation:
    def test_unknown_mode(self, source, targets):
        with pytest.raises(ConfigError, match="mode"):
            make_crosslingual_corpus(source, targets, mode="few_shot")

    def test_negative_fewshot_pairs_rejected(self, source, targets):
        with pytest.raises(ConfigError, match="fewshot_pairs"):
            make_crosslingual_corpus(source, targets, mode="T", fewshot_pairs=-5)

    def test_duplicate_langs_rejected(self, source):
        with pytest.raises(ConfigError, match="distinct"):
            make_crosslingual_corpus(source, [lang_corpus("fr")], mode="T",
                                     fewshot_pairs=5)

    def test_colliding_ids_rejected(self, source, targets):
        # A text corpus named like its target namespaces its ids the same way.
        clash = [lang_corpus("de", n_train=30, speech=False, name="corpus-de")]
        with pytest.raises(CorpusFormatError, match="duplicate record id"):
            make_crosslingual_corpus(source, targets[:1], clash, mode="T_M",
                                     fewshot_pairs=10, seed=1)

    def test_modes_cover_spec(self):
        assert set(CROSSLINGUAL_MODES) == {
            "zero_shot", "T", "T_S", "T_M", "T_S_M",
            "no_source_T", "no_source_T_S", "no_source_T_M", "no_source_T_S_M"}


class TestCorpusParts:
    def test_same_corpus_with_or_without_a_store(self, source, targets, massive):
        parts = CorpusParts()
        for seed in (1, 2):
            for mode in CROSSLINGUAL_MODES:
                shared = make_crosslingual_corpus(source, targets, massive, mode=mode,
                                                  fewshot_pairs=10, seed=seed, parts=parts)
                alone = make_crosslingual_corpus(source, targets, massive, mode=mode,
                                                 fewshot_pairs=10, seed=seed)
                assert shared == alone

    def test_each_target_part_built_once_per_store(self, source, targets, massive,
                                                   monkeypatch):
        # T_S_M's target-side parts serve T_S and no_source_T_S_M whole; T_M
        # adds only its transcript-only few-shot samples. The source part is
        # built by every call that uses the source.
        calls = []
        utterance = slumix.crosslingual.Utterance
        monkeypatch.setattr(slumix.crosslingual, "Utterance",
                            lambda *args: calls.append(args) or utterance(*args))
        parts = CorpusParts()
        first = make_crosslingual_corpus(source, targets, massive, mode="T_S_M",
                                         fewshot_pairs=10, seed=1, parts=parts)
        assert len(calls) == len(first)
        n_source = len(filter_split(source, "train"))
        for mode in ("T_S_M", "T_S", "no_source_T_S_M", "T_M"):
            make_crosslingual_corpus(source, targets, massive, mode=mode,
                                     fewshot_pairs=10, seed=1, parts=parts)
        assert len(calls) == len(first) + 3 * n_source + 2 * 10
