"""Seeded inputs: determinism, derived answers, drift pins."""

import itertools

import pytest

from repro import parse_document
from repro.workloads import generate_auction
from repro.xml.parser import ParseOptions

from perfbench import corpus, spec


def _first(stream, count):
    return list(itertools.islice(stream, count))


@pytest.mark.parametrize("workload", spec.SERVE_WORKLOADS)
def test_same_seed_same_request_bytes(workload):
    doc_ids = list(range(1, 17))

    def sequence(seed, lane):
        return [
            request.body(doc_ids)
            for request in _first(
                corpus.request_stream(workload, seed, 16, lane), 400
            )
        ]

    assert sequence(7, 0) == sequence(7, 0)
    assert sequence(7, 0) != sequence(8, 0)
    assert sequence(7, 0) != sequence(7, 1)


def test_open_loop_and_write_schedules_are_seeded():
    assert corpus.open_loop_requests(3, 50) == corpus.open_loop_requests(3, 50)
    assert corpus.open_loop_requests(3, 50) != corpus.open_loop_requests(4, 50)
    arrivals = corpus.open_loop_requests(3, 50)
    assert [r.stream for r in arrivals[:4]] == [False, True, False, True]
    assert all(r.doc is None for r in arrivals)
    assert corpus.write_schedule(3, 16, 40) == corpus.write_schedule(3, 16, 40)


def test_same_seed_same_corpus_bytes():
    one = corpus.build_serve_corpus(5, documents=3, scale=0.05)
    two = corpus.build_serve_corpus(5, documents=3, scale=0.05)
    assert one.texts == two.texts and one.digest() == two.digest()
    assert one.before == two.before
    other = corpus.build_serve_corpus(6, documents=3, scale=0.05)
    assert other.digest() != one.digest()
    assert len(set(one.texts)) == 3  # every document has its own seed


def test_mixed_rw_classes_and_literals():
    requests = _first(corpus.request_stream("mixed_rw", 1, 16, 0), 3000)
    literals = {r.literal for r in requests if r.literal is not None}
    assert len(literals) > 256  # more plans than the cache holds
    assert all(0.0 <= literal < 200.0 for literal in literals)
    assert {r.klass for r in requests} == set(corpus.MIX)
    assert all(r.doc is not None for r in requests)


def test_value_answers_match_the_evaluator_in_both_states():
    built = corpus.build_serve_corpus(
        9, documents=2, scale=0.1, with_writes=True
    )
    document = generate_auction(0.1, seed=corpus.doc_seed(9, 1))
    for literal in (0.0, 37.5, 150.0, 199.9):
        assert built.before[1].value_answer(literal) == corpus.pres(
            document, corpus.value_xpath(literal)
        )
    people = document.root_element.find("people")
    people.insert_child(
        0, corpus.parse_fragment(corpus.FRAGMENT_XML)
    )
    for literal in (0.0, 37.5, 150.0):
        assert built.after[1].value_answer(literal) == corpus.pres(
            document, corpus.value_xpath(literal)
        )
    # the insert shifts every later node, and adds one person name
    path = corpus.MIX["path"]
    assert len(built.after[1].answers[path]) == len(
        built.before[1].answers[path]
    ) + 1
    assert built.people_pre[1] == people.order_key


def test_tiled_answers_equal_the_evaluator_on_the_tiled_file():
    document = generate_auction(0.05, seed=31)
    queries = list(corpus.MIX.values())
    text, answers = corpus.tile(document, 3, queries)
    parsed = parse_document(text, ParseOptions(keep_whitespace=True))
    for xpath in queries:
        assert answers[xpath] == corpus.pres(parsed, xpath), xpath
    assert text.count("<regions>") == 3 and text.count("<site>") == 1


def test_default_seed_matches_its_pins():
    pins = corpus.load_pins()
    assert set(pins) == {"serve", "bulk", "embedded"}
    corpus.check_pins("serve", corpus.build_serve_corpus(spec.DEFAULT_SEED))
    corpus.check_pins(
        "embedded", corpus.build_embedded_corpus(spec.DEFAULT_SEED)
    )
    corpus.check_pins("bulk", corpus.build_bulk_corpus(spec.DEFAULT_SEED))


def test_a_moved_corpus_fails_loudly_as_drift():
    drifted = corpus.build_embedded_corpus(spec.DEFAULT_SEED, scale=0.1)
    with pytest.raises(corpus.WorkloadDrift, match="workload drifted"):
        corpus.check_pins("embedded", drifted)
    moved = corpus.build_embedded_corpus(spec.DEFAULT_SEED)
    moved.pres["Q2"] = moved.pres["Q2"][:-1]  # an evaluator change
    with pytest.raises(corpus.WorkloadDrift):
        corpus.check_pins("embedded", moved)
    # other seeds carry no pin
    corpus.check_pins("embedded", corpus.build_embedded_corpus(12, scale=0.1))


def test_the_mix_is_the_eight_named_classes():
    assert list(corpus.MIX) == [
        "path", "descendant", "point", "value", "exists", "position",
        "string", "text",
    ]
    assert corpus.MIX["point"] == "/site/people/person[@id = 'person0']/name"


@pytest.mark.parametrize("workload", ["point_read", "scatter_read"])
def test_the_class_mix_is_balanced_whatever_the_seed(workload):
    for seed in (1, 2, 3):
        requests = _first(corpus.request_stream(workload, seed, 16, 0), 80)
        for block in range(0, 80, 8):
            assert sorted(r.klass for r in requests[block:block + 8]) == \
                sorted(corpus.MIX)
    arrivals = corpus.open_loop_requests(5, 64)
    for streamed in (False, True):
        half = [r.klass for r in arrivals if r.stream is streamed]
        assert all(half.count(klass) == 4 for klass in corpus.MIX)
