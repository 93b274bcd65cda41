"""Linking corpora: the JSONL reader and writer, the CoNLL-style TSV reader,
and the suffix rule that picks between them."""

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from semlink.corpus import (
    LinkingDocument,
    Mention,
    load_aida_tsv,
    load_documents,
    load_linking_jsonl,
    save_linking_jsonl,
    _strip_prior,
)
from semlink.errors import FormatError

from conftest import random_doc, toy_world


class TestCorpusIO:
    def test_jsonl_round_trip(self, rng, tmp_path):
        entities, words, labels, wlabels = toy_world(rng)
        docs = [random_doc(rng, labels, wlabels, 2, 3, doc_id=f"d{i}") for i in range(4)]
        p = tmp_path / "docs.jsonl"
        save_linking_jsonl(docs, p)
        again = load_linking_jsonl(p)
        assert len(again) == 4
        for d1, d2 in zip(docs, again):
            assert d1.doc_id == d2.doc_id
            for m1, m2 in zip(d1.mentions, d2.mentions):
                assert (m1.surface, m1.context, m1.candidates, m1.gold) == (
                    m2.surface, m2.context, m2.candidates, m2.gold,
                )

    def test_jsonl_bad_line(self, tmp_path):
        p = tmp_path / "docs.jsonl"
        p.write_text("{not json}\n", "utf-8")
        with pytest.raises(FormatError):
            load_linking_jsonl(p)

    def test_aida_style_tsv(self, tmp_path):
        p = tmp_path / "corpus.tsv"
        p.write_text(
            "-DOCSTART- (doc_a)\n"
            "The\n"
            "president\n"
            "visited\tB\tvisited City\tCity_X\tCity_X:0.9,City_Y:0.1\n"
            "today\n"
            "-DOCSTART- (doc_b)\n"
            "A\n"
            "striker\tB\tstriker\t--NME--\tPlayer_1,Player_2\n",
            "utf-8",
        )
        docs = load_aida_tsv(p, window=2)
        assert [d.doc_id for d in docs] == ["doc_a", "doc_b"]
        m = docs[0].mentions[0]
        assert m.candidates == ["City_X", "City_Y"]  # priors stripped
        assert m.gold == "City_X"
        assert m.context == ["the", "president", "today"]
        assert docs[1].mentions[0].gold is None

    @pytest.mark.parametrize("written, doc_id", [
        ("(f(x))", "f(x)"), ("(doc)", "doc"), ("doc7", "doc7"), ("f(x)", "f(x)"), ("((a))", "(a)"),
    ])
    def test_tsv_doc_id_loses_only_its_wrapping_parentheses(self, tmp_path, written, doc_id):
        p = tmp_path / "corpus.tsv"
        p.write_text(f"-DOCSTART- {written}\nx\tB\tx\tX\tX\n", "utf-8")
        assert [d.doc_id for d in load_aida_tsv(p)] == [doc_id]

    def test_jsonl_repeated_candidate_names_file_and_line(self, tmp_path):
        # after prior stripping all three forms are 'e2'
        good = {"doc_id": "a", "mentions": [{"surface": "x", "candidates": ["e1", "e2"]}]}
        bad = {"doc_id": "b", "mentions": [{"surface": "x", "candidates": ["e1", "e2", "e2:0.5", ["e2", 0.1]]}]}
        p = tmp_path / "docs.jsonl"
        p.write_text(f"{json.dumps(good)}\n{json.dumps(bad)}\n", "utf-8")
        with pytest.raises(FormatError, match="repeated candidate 'e2'") as e:
            load_linking_jsonl(p)
        assert (e.value.path, e.value.line) == (p, 2)

    def test_tsv_repeated_candidate_names_file_and_line(self, tmp_path):
        p = tmp_path / "corpus.tsv"
        p.write_text("-DOCSTART- (d)\na\nx\tB\tx\tX\tX:0.9,Y,Y:0.1\n", "utf-8")
        with pytest.raises(FormatError, match="repeated candidate 'Y'") as e:
            load_aida_tsv(p)
        assert (e.value.path, e.value.line) == (p, 3)

    def test_tsv_b_and_i_lines_make_one_span(self, tmp_path):
        p = tmp_path / "corpus.tsv"
        p.write_text("-DOCSTART- (d)\na\nb\nNew\tB\tNew York City\tNYC\tNYC,York\nYork\tI\n"
                     "City\tI\tmore\tfields\nc\nd\tI\ne\n", "utf-8")
        (m,) = load_aida_tsv(p, window=2)[0].mentions
        assert (m.surface, m.candidates, m.gold) == ("New York City", ["NYC", "York"], "NYC")
        # the window skips all three span tokens; the later I line is a plain token
        assert m.context == ["a", "b", "c", "d"]

    def test_tsv_i_line_after_a_plain_token_stays_a_token(self, tmp_path):
        p = tmp_path / "corpus.tsv"
        p.write_text("-DOCSTART- (d)\nYork\tI\nx\tB\tx\tX\tX\ny\nz\tI\n", "utf-8")
        (m,) = load_aida_tsv(p, window=5)[0].mentions
        assert m.context == ["york", "y", "z"]

    @given(st.data())
    def test_conll_written_documents_read_back(self, data):
        """Documents written as CoNLL by this test read back as the same
        documents; those with no mention are dropped."""
        words = st.text("abcdefghij", min_size=1, max_size=4)
        labels = st.text("ABC_", min_size=1, max_size=3)
        window = data.draw(st.integers(0, 4))
        expected, lines = [], []
        for n in range(data.draw(st.integers(0, 4))):
            lines.append(f"-DOCSTART- (d{n})")
            tokens, spans = [], []
            # each item is a plain token (None) or a mention of 1-3 tokens
            for item in data.draw(st.lists(st.one_of(st.none(), st.lists(words, min_size=1, max_size=3)),
                                           max_size=8)):
                if item is None:
                    tokens.append(data.draw(words))
                    lines.append(tokens[-1])
                    continue
                candidates = data.draw(st.lists(labels, max_size=3, unique=True))
                gold = data.draw(st.sampled_from([*candidates, None, "Z"]))
                spans.append((len(tokens), len(tokens) + len(item), " ".join(item), gold, candidates))
                tokens += item
                lines.append(f"{item[0]}\tB\t{spans[-1][2]}\t{gold or '--NME--'}\t{','.join(candidates)}")
                lines += [f"{word}\tI" for word in item[1:]]
            if spans:
                expected.append(LinkingDocument(f"d{n}", [
                    Mention(surface, tokens[max(0, a - window) : a] + tokens[b : b + window], candidates, gold)
                    for a, b, surface, gold, candidates in spans
                ]))
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "corpus.conll"
            p.write_text("".join(f"{line}\n" for line in lines), "utf-8")
            assert load_aida_tsv(p, window=window) == expected

    @pytest.mark.parametrize("candidate", ["a\tb", "a\nb", "a\rb", "a\tb:0.5", ["a\tb", 0.5]],
                             ids=["tab", "newline", "return", "tab-and-prior", "tab-in-pair"])
    def test_jsonl_candidate_with_a_tab_or_line_break_names_file_and_line(self, tmp_path, candidate):
        """`link infer` writes each pick as one TSV field, so a label that would split it is refused."""
        good = {"doc_id": "a", "mentions": [{"surface": "x", "candidates": ["e1"]}]}
        bad = {"doc_id": "b", "mentions": [good["mentions"][0], {"surface": "x", "candidates": ["e1", candidate]}]}
        p = tmp_path / "docs.jsonl"
        p.write_text(f"{json.dumps(good)}\n{json.dumps(bad)}\n", "utf-8")
        label = candidate[0] if isinstance(candidate, list) else candidate.removesuffix(":0.5")
        with pytest.raises(FormatError, match=re.escape(f"candidate {label!r} holds a tab or a line break")) as e:
            load_linking_jsonl(p)
        assert (e.value.path, e.value.line) == (p, 2)

    @pytest.mark.parametrize("doc_id", ["a\tb", "a\nb", "a\rb", "\t"])
    def test_jsonl_doc_id_with_a_tab_or_line_break_names_file_and_line(self, tmp_path, doc_id):
        """Every TSV output is keyed by the doc id, so one that would split its line is refused."""
        good = {"doc_id": "a b", "mentions": [{"surface": "x", "candidates": ["e1"]}]}
        p = tmp_path / "docs.jsonl"
        p.write_text(f"{json.dumps(good)}\n{json.dumps({**good, 'doc_id': doc_id})}\n", "utf-8")
        with pytest.raises(FormatError, match=re.escape(f"doc_id {doc_id!r} holds a tab or a line break")) as e:
            load_linking_jsonl(p)
        assert (e.value.path, e.value.line) == (p, 2)

    @pytest.mark.parametrize("name", ["docs.tsv", "docs.CONLL", "docs.jsonl", "docs"])
    def test_load_documents_reads_by_suffix(self, tmp_path, name):
        tsv = "-DOCSTART- (d)\na\nb\nx\tB\tx\tX\tX,Y\nc\nd\n"
        docs = [LinkingDocument("d", [Mention("x", ["a", "b", "c", "d"], ["X", "Y"], "X")])]
        p = tmp_path / name
        if name.lower().endswith((".tsv", ".conll")):
            p.write_text(tsv, "utf-8")
            assert load_documents(p, window=1) == load_aida_tsv(p, window=1)
            assert load_documents(p) == docs
        else:
            save_linking_jsonl(docs, p)
            assert load_documents(p, window=1) == docs

    @pytest.mark.parametrize("text, label", [
        ("City_X:0.9", "City_X"),
        ("City_X:0", "City_X"),
        ("City_X:1.0", "City_X"),
        ("a:b:0.25", "a:b"),
        ("Apollo:11", "Apollo:11"),
        ("x:nan", "x:nan"),
        ("y:inf", "y:inf"),
        ("z:-0.5", "z:-0.5"),
        ("Title:Subtitle", "Title:Subtitle"),
        (":0.5", ":0.5"),
        ("plain", "plain"),
    ])
    def test_strip_prior_only_strips_probabilities(self, text, label):
        assert _strip_prior(text) == label

    def test_jsonl_candidate_that_looks_like_a_prior_reads_back(self, tmp_path):
        """A candidate whose ':'-suffix would read as a prior is written as a
        [label, prior] pair; the other candidates keep their plain form."""
        docs = [LinkingDocument("d", [Mention("apollo", ["moon"], ["Apollo", "Apollo:1", "Apollo:11"], "Apollo:1")])]
        p = tmp_path / "docs.jsonl"
        save_linking_jsonl(docs, p)
        assert load_linking_jsonl(p) == docs
        assert load_linking_jsonl(p)[0].mentions[0].gold_in_candidates()
        (record,) = map(json.loads, p.read_text("utf-8").splitlines())
        assert record["mentions"][0]["candidates"] == ["Apollo", ["Apollo:1", 1.0], "Apollo:11"]

    @given(st.lists(st.text("ab:.01", min_size=1, max_size=6), min_size=1, max_size=5, unique=True))
    def test_jsonl_written_candidates_read_back(self, candidates):
        docs = [LinkingDocument("d", [Mention("x", ["y"], candidates, candidates[-1])])]
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "docs.jsonl"
            save_linking_jsonl(docs, p)
            assert load_linking_jsonl(p) == docs

    def test_strip_prior_structured_pair(self):
        assert _strip_prior(["Apollo:11", 0.3]) == "Apollo:11"
        assert _strip_prior(("City_X", 0.9)) == "City_X"
