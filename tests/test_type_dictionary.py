"""Dictionary mining, seed expansion, curated builds, and remapping."""

import numpy as np
import pytest

from semlink._text import tokenize
from semlink.embed_io import EmbeddingTable
from semlink.errors import FormatError, MissingSeedError, RemapTargetError
from semlink.type_dictionary import (
    SemanticTypeDictionary,
    apply_remap,
    build_dictionary,
    default_noun_predicate,
    expand_seeds,
    mine_noun_frequency,
    normalize_type_word,
)

# Hand-tallied mining fixture: 20 first sentences with an explicit noun set,
# so the expected counts below were counted by eye, not computed.
NOUNS = {
    "lawyer", "official", "director", "player", "team", "coach", "city",
    "company", "carmaker", "album", "band", "university", "river", "writer",
    "physicist", "politician", "church", "league", "season", "award",
}

SENTENCES = [
    ("e01", "Robert Mueller is an american lawyer and government official."),
    ("e02", "Jane Roe is a lawyer and former official of the city."),
    ("e03", "The club is a rugby team with a famous coach."),
    ("e04", "He was a player before becoming a coach of the team."),
    ("e05", "Acme is a company and carmaker based in the city."),
    ("e06", "The album was recorded by the band in one season."),
    ("e07", "The university sits by the river."),
    ("e08", "She is a writer and physicist."),
    ("e09", "The politician founded a church near the river."),
    ("e10", "The league awarded the team its first award."),
    ("e11", "A player joined the band after the season."),
    ("e12", "The director managed the company."),
    ("e13", "The coach praised the player and the team."),
    ("e14", "The city honored the university and its writer."),
    ("e15", "The carmaker sponsored the league this season."),
    ("e16", "An official opened the church."),
    ("e17", "The physicist joined the university."),
    ("e18", "The writer described the river and the city."),
    ("e19", "The award went to the director of the album."),
    ("e20", "The politician met the lawyer."),
]

# eyeball tally over the sentences above
HAND_TALLY = {
    "lawyer": 3, "official": 3, "director": 2, "player": 3, "team": 4,
    "coach": 3, "city": 4, "company": 2, "carmaker": 2, "album": 2,
    "band": 2, "university": 3, "river": 3, "writer": 3, "physicist": 2,
    "politician": 2, "church": 2, "league": 2, "season": 3, "award": 2,
}


class TestMineNounFrequency:
    def test_single_sentence(self):
        report = mine_noun_frequency(
            [("e1", "Robert Mueller is an american lawyer.")],
            tagger=lambda t: t == "lawyer",
        )
        assert report.counts == {"lawyer": 1}
        assert report.total_sentences == 1

    def test_additivity_across_articles(self):
        report = mine_noun_frequency(
            [("e1", "A famous player."), ("e2", "Another player retired.")],
            tagger=lambda t: t == "player",
        )
        assert report.counts == {"player": 2}

    def test_empty_corpus(self):
        report = mine_noun_frequency([])
        assert report.counts == {}
        assert report.total_sentences == 0

    def test_hand_tallied_fixture(self):
        report = mine_noun_frequency(SENTENCES, tagger=lambda t: t in NOUNS)
        assert report.total_sentences == 20
        assert report.counts == HAND_TALLY

    def test_tagger_called_once_per_distinct_token(self):
        calls = []

        def tagger(token):
            calls.append(token)
            return token in NOUNS

        report = mine_noun_frequency(SENTENCES, tagger=tagger)
        # the per-occurrence loop this replaced, as the reference
        expected = {}
        for _entity_id, sentence in SENTENCES:
            for token in tokenize(sentence):
                if token in NOUNS:
                    expected[token] = expected.get(token, 0) + 1
        assert report.counts == expected
        assert list(report.counts) == list(expected)  # first-occurrence order
        distinct = {t for _e, sentence in SENTENCES for t in tokenize(sentence)}
        assert sorted(calls) == sorted(distinct)

    def test_frequent_threshold(self):
        report = mine_noun_frequency(SENTENCES, tagger=lambda t: t in NOUNS)
        frequent = dict(report.frequent(min_count=3))
        assert frequent == {w: c for w, c in HAND_TALLY.items() if c >= 3}

    def test_report_tsv_round_trip(self, tmp_path):
        report = mine_noun_frequency(SENTENCES, tagger=lambda t: t in NOUNS)
        p = tmp_path / "nouns.tsv"
        report.save_tsv(p)
        again = type(report).load_tsv(p)
        assert again.counts == report.counts
        assert again.total_sentences == report.total_sentences

    def test_default_predicate_smoke(self):
        # the shipped fallback is crude but must get the obvious ones right
        assert default_noun_predicate("lawyer")
        assert default_noun_predicate("carmaker")
        assert not default_noun_predicate("the")
        assert not default_noun_predicate("is")
        assert not default_noun_predicate("quickly")
        assert not default_noun_predicate("served")


class TestExpandSeeds:
    def test_orthogonal_toy(self):
        table = EmbeddingTable.from_pairs([("a", [1, 0]), ("b", [1, 0]), ("c", [0, 1])])
        (exp,) = expand_seeds(["a"], {"b", "c"}, table, k=2)
        assert exp.neighbors == [("b", 1.0), ("c", 0.0)]

    def test_k_larger_than_pool(self):
        table = EmbeddingTable.from_pairs([("a", [1, 0]), ("b", [0.5, 0.5])])
        (exp,) = expand_seeds(["a"], {"b"}, table, k=10)
        assert len(exp.neighbors) == 1

    def test_seed_never_returned_and_membership(self, make_table):
        table = make_table(40, 8, prefix="w")
        members = {f"w{i:05d}" for i in range(0, 40, 2)}
        (exp,) = expand_seeds(["w00001"], members, table, k=100)
        labels = [w for w, _s in exp.neighbors]
        assert "w00001" not in labels
        assert set(labels) <= members

    def test_scores_non_increasing(self, make_table):
        table = make_table(60, 5, prefix="w")
        (exp,) = expand_seeds(["w00000"], set(table.labels), table, k=30)
        scores = [s for _w, s in exp.neighbors]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert all(-1.0 - 1e-12 <= s <= 1.0 + 1e-12 for s in scores)

    def test_matches_brute_force_oracle(self, rng):
        labels = [f"w{i:03d}" for i in range(50)]
        matrix = rng.standard_normal((50, 6)).astype(np.float32)
        table = EmbeddingTable(6, labels, matrix)
        members = set(labels)
        (exp,) = expand_seeds(["w007"], members, table, k=5)

        seed_vec = matrix[7].astype(np.float64)
        scored = []
        for i, label in enumerate(labels):
            if label == "w007":
                continue
            v = matrix[i].astype(np.float64)
            cos = float(v @ seed_vec / (np.linalg.norm(v) * np.linalg.norm(seed_vec)))
            scored.append((label, cos))
        scored.sort(key=lambda ws: (-ws[1], ws[0]))
        expected = scored[:5]
        assert [w for w, _ in exp.neighbors] == [w for w, _ in expected]
        np.testing.assert_allclose(
            [s for _, s in exp.neighbors], [s for _, s in expected], atol=1e-12
        )

    def test_missing_seed(self, make_table):
        table = make_table(5, 3)
        with pytest.raises(MissingSeedError, match="ghost"):
            expand_seeds(["ghost"], set(table.labels), table)


def _write(path, text):
    path.write_text(text, "utf-8")
    return path


class TestBuildDictionary:
    def test_seed_plus_extension(self, tmp_path):
        seeds = _write(tmp_path / "s.txt", "lawyer\n")
        exts = _write(tmp_path / "e.txt", "attorney\n")
        d = build_dictionary(None, seeds, exts)
        assert d.words == {"lawyer", "attorney"}
        assert d.remap == {}

    def test_remap_validated_against_embeddings(self, tmp_path):
        seeds = _write(tmp_path / "s.txt", "lawyer\n")
        exts = _write(tmp_path / "e.txt", "")
        remap = _write(tmp_path / "r.tsv", "conchologist\tzoologist\n")
        table = EmbeddingTable.from_pairs([("zoologist", [1.0]), ("lawyer", [0.5])])
        d = build_dictionary(None, seeds, exts, remap, embedding_vocab=table)
        assert apply_remap(d, "conchologist") == "zoologist"

    def test_remap_target_nowhere(self, tmp_path):
        seeds = _write(tmp_path / "s.txt", "lawyer\n")
        remap = _write(tmp_path / "r.tsv", "conchologist\tzoologist\n")
        with pytest.raises(RemapTargetError):
            build_dictionary(None, seeds, None, remap, embedding_vocab={"lawyer"})

    def test_self_map_rejected(self, tmp_path):
        seeds = _write(tmp_path / "s.txt", "x\n")
        remap = _write(tmp_path / "r.tsv", "x\tx\n")
        with pytest.raises(RemapTargetError):
            build_dictionary(None, seeds, None, remap)

    def test_chained_remap_rejected(self, tmp_path):
        seeds = _write(tmp_path / "s.txt", "a\nb\nc\n")
        remap = _write(tmp_path / "r.tsv", "a\tb\nb\tc\n")
        with pytest.raises(RemapTargetError):
            build_dictionary(None, seeds, None, remap)

    def test_malformed_line_reports_position(self, tmp_path):
        seeds = _write(tmp_path / "s.txt", "lawyer\n")
        remap = _write(tmp_path / "r.tsv", "good\tlawyer\nbad-line\n")
        with pytest.raises(FormatError, match="2"):
            build_dictionary(None, seeds, None, remap)

    def test_comments_and_blank_lines(self, tmp_path):
        seeds = _write(tmp_path / "s.txt", "# heading\n\nlawyer\nceo\t title\n")
        d = build_dictionary(None, seeds, None)
        assert d.words == {"lawyer", "ceo"}
        assert d.categories["ceo"] == "title"

    def test_phrases_normalized_to_underscores(self, tmp_path):
        seeds = _write(tmp_path / "s.txt", "Defense Contractor\nrugby league\n")
        d = build_dictionary(None, seeds, None)
        assert d.words == {"defense_contractor", "rugby_league"}

    def test_deterministic_serialization(self, tmp_path):
        seeds = _write(tmp_path / "s.txt", "zebra\nalpha\nmiddle\n")
        remap = _write(tmp_path / "r.tsv", "zz\talpha\naa\tmiddle\n")
        d = build_dictionary(None, seeds, None, remap)
        out1w, out1r = tmp_path / "w1.txt", tmp_path / "r1.tsv"
        out2w, out2r = tmp_path / "w2.txt", tmp_path / "r2.tsv"
        d.save(out1w, out1r)
        build_dictionary(None, seeds, None, remap).save(out2w, out2r)
        assert out1w.read_bytes() == out2w.read_bytes()
        assert out1r.read_bytes() == out2r.read_bytes()

    def test_serialization_round_trip(self, tmp_path):
        seeds = _write(tmp_path / "s.txt", "lawyer\nceo\ttitle\n")
        remap = _write(tmp_path / "r.tsv", "conchologist\tlawyer\n")
        d = build_dictionary(None, seeds, None, remap)
        wp, rp = tmp_path / "w.txt", tmp_path / "r2.tsv"
        d.save(wp, rp)
        again = SemanticTypeDictionary.load(wp, rp)
        assert again.words == d.words
        assert again.remap == d.remap
        assert again.categories == d.categories


class TestApplyRemap:
    def _dict(self):
        return SemanticTypeDictionary(
            words={"zoologist", "rugby_league", "lawyer"},
            remap={"conchologist": "zoologist", "rugby league": "rugby_league"},
        )

    def test_known_remaps(self):
        d = self._dict()
        assert apply_remap(d, "conchologist") == "zoologist"
        assert apply_remap(d, "rugby league") == "rugby_league"

    def test_identity_for_unmapped(self):
        assert apply_remap(self._dict(), "lawyer") == "lawyer"

    def test_idempotent_after_one_application(self):
        d = self._dict()
        for word in ("conchologist", "rugby league", "lawyer", "unknown"):
            once = apply_remap(d, word)
            assert apply_remap(d, once) == once


def test_normalize_type_word():
    assert normalize_type_word("Rugby League") == "rugby_league"
    assert normalize_type_word("  hip   hop ") == "hip_hop"
    assert normalize_type_word("lawyer") == "lawyer"
