"""Per-entity type extraction: cap, order, phrases, dedup, corpus streaming."""

import re
import string

import pytest
from hypothesis import example, given, strategies as st

from semlink._text import tokenize
from semlink.errors import DuplicateEntityError, FormatError
from semlink.type_dictionary import SemanticTypeDictionary, apply_remap
from semlink.type_extraction import (
    ArticleRecord,
    PhraseMatcher,
    extract_corpus,
    extract_types,
    read_article_corpus,
    read_assignments,
    write_assignments,
)

MUELLER_SENTENCE = (
    "Robert Mueller is an american lawyer and government official who served "
    "as director of the Federal Bureau of Investigation."
)


def make_dict(words, remap=None):
    return SemanticTypeDictionary(words=set(words), remap=remap or {})


class TestExtractTypes:
    def test_mueller_example(self):
        d = make_dict(["american", "lawyer", "government", "official", "director"])
        article = ArticleRecord("Robert_Mueller", "Robert Mueller", MUELLER_SENTENCE)
        assignment = extract_types(article, d, cap=11)
        assert assignment.type_words == [
            "american", "lawyer", "government", "official", "director",
        ]

    def test_cap_enforced_in_occurrence_order(self):
        words = [f"w{i:02d}" for i in range(15)]
        d = make_dict(words)
        text = " ".join(words)
        article = ArticleRecord("e", "t", text)
        assignment = extract_types(article, d, cap=11)
        assert assignment.type_words == words[:11]
        for cap in (1, 6, 11):
            assert len(extract_types(article, d, cap=cap).type_words) == cap

    def test_deduplication_keeps_first(self):
        d = make_dict(["lawyer"])
        article = ArticleRecord("e", "t", "the lawyer met a lawyer")
        assert extract_types(article, d).type_words == ["lawyer"]

    def test_first_sentence_scanned_before_body(self):
        d = make_dict(["writer", "lawyer"])
        article = ArticleRecord("e", "t", first_sentence="a lawyer.", body="a writer too.")
        assert extract_types(article, d).type_words == ["lawyer", "writer"]

    def test_empty_text_gives_empty_assignment(self):
        d = make_dict(["lawyer"])
        assert extract_types(ArticleRecord("e", "t", ""), d).type_words == []

    def test_phrase_longest_match_wins(self):
        d = make_dict(["rugby", "rugby_league", "league"])
        article = ArticleRecord("e", "t", "he played rugby league for years")
        # longest phrase at the first position consumes both tokens
        assert extract_types(article, d).type_words == ["rugby_league"]

    def test_phrase_match_applies_remap(self):
        d = make_dict(["zoologist", "conchologist"], remap={"conchologist": "zoologist"})
        article = ArticleRecord("e", "t", "a noted conchologist of shells")
        assert extract_types(article, d).type_words == ["zoologist"]

    def test_remap_collision_deduplicates(self):
        d = make_dict(["conchologist", "zoologist"], remap={"conchologist": "zoologist"})
        article = ArticleRecord("e", "t", "a conchologist and zoologist")
        assert extract_types(article, d).type_words == ["zoologist"]

    def test_cap_must_be_positive(self):
        d = make_dict(["lawyer"])
        with pytest.raises(ValueError):
            extract_types(ArticleRecord("e", "t", "x"), d, cap=0)

    def test_empty_dictionary_rejected(self):
        with pytest.raises(ValueError):
            extract_types(ArticleRecord("e", "t", "x"), SemanticTypeDictionary())


def reference_extract_types(article, dictionary, cap):
    """Try a dictionary match at every token position, in order."""
    matcher = PhraseMatcher(dictionary)
    tokens = tokenize(article.first_sentence) + tokenize(article.body)
    collected, seen, i = [], set(), 0
    while i < len(tokens) and len(collected) < cap:
        hit = matcher.match_at(tokens, i)
        if hit is None:
            i += 1
            continue
        word, consumed = hit
        mapped = apply_remap(dictionary, word)
        if mapped not in seen:
            seen.add(mapped)
            collected.append(mapped)
        i += consumed
    return collected


# Characters where a byte-level or ASCII-only rule could part from the regex:
# case mappings onto ASCII (KELVIN SIGN, dotted capital I), a lowercase letter
# with no ASCII form, no-break space, line/paragraph and file/group/record/unit
# separators, and a lone surrogate.
_TRICKY = "\u212a\u0130\u00df\u00a0\u2028\u2029\x1c\x1d\x1e\x1f\ud800\udfff\u00e9\u212b"
_TOKEN_RE = re.compile(r"[a-z0-9_']+")


@given(st.text(alphabet=st.one_of(
    st.sampled_from(_TRICKY),
    st.sampled_from(string.ascii_letters + string.digits + "_' \t\n.,-"),
    st.characters(),
)))
@example("Kelvin \u212aELVIN \u0130stanbul stra\u00dfe a\u00a0b c\u2028d e\x1cf\x1dg\x1eh\x1fi j\ud800k")
def test_tokenize_matches_regex(text):
    assert tokenize(text) == _TOKEN_RE.findall(text.lower())


def test_tokenize_examples():
    assert tokenize("O'Brien's A_B-c \u212a") == ["o'brien's", "a_b", "c", "k"]
    assert tokenize("\u0130zmir stra\u00dfe caf\u00e9 x\ud800y") == ["i", "zmir", "stra", "e", "caf", "x", "y"]


_TOKENS = ["a", "b", "c", "d", "x"]


@st.composite
def phrase_worlds(draw):
    # one- to three-token phrases over a tiny vocabulary overlap and nest
    phrase = st.lists(st.sampled_from(_TOKENS[:4]), min_size=1, max_size=3).map("_".join)
    words = draw(st.lists(phrase, min_size=1, max_size=8, unique=True))
    targets = [w for w in words if draw(st.booleans())]
    remap = {}
    for w in words:
        if w not in targets and targets and draw(st.booleans()):
            remap[w] = draw(st.sampled_from(targets))
    dictionary = SemanticTypeDictionary(words=set(words), remap=remap)
    first = draw(st.lists(st.sampled_from(_TOKENS), max_size=12))
    body = draw(st.lists(st.sampled_from(_TOKENS), max_size=12))
    article = ArticleRecord("e", "t", first_sentence=" ".join(first), body=" ".join(body))
    return dictionary, article, draw(st.integers(1, 4))


@given(phrase_worlds())
def test_extract_types_matches_per_position_scan(world):
    dictionary, article, cap = world
    got = extract_types(article, dictionary, cap=cap).type_words
    assert got == reference_extract_types(article, dictionary, cap)


class TestExtractCorpus:
    def _articles(self, n):
        d_words = ["lawyer", "writer", "player"]
        articles = []
        for i in range(n):
            word = d_words[i % 3]
            articles.append(ArticleRecord(f"e{i:04d}", f"t{i}", f"a {word} of note."))
        return make_dict(d_words), articles

    def test_empty_corpus(self):
        d = make_dict(["lawyer"])
        assert extract_corpus([], d) == {}

    def test_matches_per_article_extraction(self):
        d, articles = self._articles(3)
        result = extract_corpus(articles, d)
        for article in articles:
            assert result[article.entity_id].type_words == extract_types(article, d).type_words

    def test_duplicate_entity_rejected(self):
        d = make_dict(["lawyer"])
        articles = [ArticleRecord("e", "t", "lawyer."), ArticleRecord("e", "t", "lawyer.")]
        with pytest.raises(DuplicateEntityError):
            extract_corpus(articles, d)

    def test_permutation_independent_per_article(self, rng):
        d, articles = self._articles(40)
        base = extract_corpus(articles, d)
        perm = [articles[i] for i in rng.permutation(len(articles))]
        shuffled = extract_corpus(perm, d)
        assert {k: v.type_words for k, v in base.items()} == {
            k: v.type_words for k, v in shuffled.items()
        }


class TestCorpusIO:
    def test_tsv_round_trip(self, tmp_path):
        p = tmp_path / "corpus.tsv"
        p.write_text("e1\tTitle One\tA lawyer. More text.\ne2\tTwo\tA writer.\n", "utf-8")
        articles = list(read_article_corpus(p))
        assert [a.entity_id for a in articles] == ["e1", "e2"]
        assert articles[0].first_sentence == "A lawyer."
        assert articles[0].body == "More text."

    def test_tsv_bad_field_count(self, tmp_path):
        p = tmp_path / "corpus.tsv"
        p.write_text("e1\tonly-two-fields\n", "utf-8")
        with pytest.raises(FormatError):
            list(read_article_corpus(p))

    def test_directory_mode(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "ent_b.txt").write_text("A writer. Body.", "utf-8")
        (d / "ent_a.txt").write_text("A lawyer.", "utf-8")
        articles = list(read_article_corpus(d))
        assert [a.entity_id for a in articles] == ["ent_a", "ent_b"]

    def test_assignments_round_trip(self, tmp_path):
        d = make_dict(["lawyer", "writer"])
        articles = [
            ArticleRecord("e1", "t", "a lawyer and writer."),
            ArticleRecord("e2", "t", "nothing typed here."),
        ]
        assignments = extract_corpus(articles, d)
        p = tmp_path / "types.tsv"
        write_assignments(assignments, p)
        again = read_assignments(p)
        assert {k: v.type_words for k, v in again.items()} == {
            "e1": ["lawyer", "writer"],
            "e2": [],
        }
