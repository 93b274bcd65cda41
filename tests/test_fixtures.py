"""Synthetic fixture generator: determinism, validity, extraction recovery."""

from pathlib import Path

from semlink.fixtures import FixtureSizes, generate_fixture, make_fixtures
from semlink.type_extraction import extract_corpus

SMALL = FixtureSizes(
    entities=18, groups=6, train_docs=6, dev_docs=3, eval_docs=3,
    mentions_per_doc=3, dim=16, filler_words=40,
)


def read_tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        make_fixtures(3, SMALL, tmp_path / "a")
        make_fixtures(3, SMALL, tmp_path / "b")
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        make_fixtures(3, SMALL, tmp_path / "a")
        make_fixtures(4, SMALL, tmp_path / "b")
        assert read_tree(tmp_path / "a") != read_tree(tmp_path / "b")


class TestEmptySizes:
    def test_empty_files_are_valid(self, tmp_path):
        paths = make_fixtures(1, FixtureSizes.empty(), tmp_path / "e")
        from semlink.embed_io import load_binary
        from semlink.corpus import load_linking_jsonl

        assert len(load_binary(paths["words"])) == 0
        assert len(load_binary(paths["wikitext"])) == 0
        assert load_linking_jsonl(paths["train"]) == []
        assert paths["articles"].read_text("utf-8") == ""


class TestValidity:
    def test_validator_clean_on_generated_output(self):
        bundle = generate_fixture(9, SMALL)
        for docs in (bundle.train_docs, bundle.dev_docs, bundle.eval_docs):
            for doc in docs:
                for m in doc.mentions:
                    assert m.gold is not None and m.gold in m.candidates
                    assert all(c in bundle.wikitext for c in m.candidates)
        for assignment in bundle.assignments.values():
            assert all(w in bundle.words for w in assignment.type_words)
            assert len(assignment.type_words) <= 11

    def test_gold_always_in_candidates(self):
        bundle = generate_fixture(12, SMALL)
        for docs in (bundle.train_docs, bundle.dev_docs, bundle.eval_docs):
            for doc in docs:
                for m in doc.mentions:
                    assert m.gold in m.candidates

    def test_extraction_recovers_assignments(self):
        # article first sentences literally list the sampled type words
        bundle = generate_fixture(21, SMALL)
        extracted = extract_corpus(bundle.articles, bundle.dictionary, cap=11)
        for label, assignment in bundle.assignments.items():
            assert extracted[label].type_words == assignment.type_words

    def test_candidates_cross_groups(self):
        bundle = generate_fixture(2, SMALL)
        group_of = {}
        for label, assignment in bundle.assignments.items():
            group_of[label] = assignment.type_words[0][:6]  # "typeNN"
        for doc in bundle.train_docs:
            for m in doc.mentions:
                for c in m.candidates:
                    if c != m.gold:
                        assert group_of[c] != group_of[m.gold]

    def test_type_words_capped(self):
        bundle = generate_fixture(2, SMALL)
        for assignment in bundle.assignments.values():
            assert 1 <= len(assignment.type_words) <= 11
