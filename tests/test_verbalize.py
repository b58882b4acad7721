import hashlib

import pytest

from fasttog import (
    Community,
    Engine,
    GenerationResponse,
    KnowledgeGraph,
    ScriptedGateway,
    Triple,
    build_pruning_prompt,
    build_reasoning_prompt,
    graph2text,
    triple2text,
)
from fasttog.errors import ResolutionError
from fasttog.gateway import baseline_answer, load_template
from fasttog.verbalize import CommunityText

from helpers import Counting, full_subgraph, pruning_options


def community_over(triples, members=None):
    kg = KnowledgeGraph(triples)
    g = full_subgraph(kg)
    c = Community.from_members(members or kg.nodes, g)
    return c, g


def test_t2t_chain_example_is_byte_exact():
    c, g = community_over(
        [
            Triple("Philadelphia", "isCityOf", "Pennsylvania"),
            Triple("Pennsylvania", "climate", "Humid Subtropical"),
        ]
    )
    out = triple2text(c, [], g)
    assert out.text == "Philadelphia isCityOf Pennsylvania, Pennsylvania climate Humid Subtropical"
    assert out.mode_used == "t2t"
    assert not out.includes_bridge


def test_t2t_shared_object_example_is_byte_exact():
    c, g = community_over(
        [
            Triple("Allentown", "isCityOf", "Pennsylvania"),
            Triple("New Castle", "isCityof", "Pennsylvania"),
            Triple("Philadelphia", "isCityOf", "Pennsylvania"),
        ]
    )
    out = triple2text(c, [], g)
    assert out.text == (
        "Allentown isCityOf Pennsylvania, New Castle isCityof Pennsylvania, "
        "Philadelphia isCityOf Pennsylvania"
    )


def test_t2t_single_node_is_label():
    c, g = community_over([Triple("Philadelphia", "isCityOf", "Pennsylvania")], {"Philadelphia"})
    assert triple2text(c, [], g).text == "Philadelphia"


def test_t2t_bridge_segment():
    c, g = community_over(
        [Triple("a", "r", "b"), Triple("b", "link", "x")], {"a", "b"}
    )
    out = triple2text(c, [Triple("b", "link", "x")], g)
    assert out.text == "a r b, linked via: b link x"
    assert out.includes_bridge


def test_t2t_is_pure_and_complete():
    triples = [
        Triple("a", "r1", "b"),
        Triple("b", "r2", "c"),
        Triple("c", "r3", "a"),
    ]
    c, g = community_over(triples)
    first = triple2text(c, [], g)
    second = triple2text(c, [], g)
    assert first.text == second.text
    for label in ("a", "b", "c"):
        assert label in first.text
    for pred in ("r1", "r2", "r3"):
        assert pred in first.text


def test_g2t_uses_backend_text():
    c, g = community_over(
        [
            Triple("Philadelphia", "isCityOf", "Pennsylvania"),
            Triple("Pennsylvania", "climate", "Humid Subtropical"),
        ]
    )
    fluent = "Philadelphia, located in the state of Pennsylvania, features a Humid Subtropical climate."
    backend = Counting(ScriptedGateway([fluent]))
    out = graph2text(c, [], backend, g)
    assert out.text == fluent
    assert out.mode_used == "g2t"
    assert backend.ledger.counts()["g2t"] == 1


def test_g2t_falls_back_without_backend():
    c, g = community_over([Triple("a", "r", "b")])
    out = graph2text(c, [], None, g)
    assert out.mode_used == "t2t"
    assert out.fallback
    assert out.text == "a r b"


def test_g2t_falls_back_on_backend_failure():
    c, g = community_over([Triple("a", "r", "b")])
    backend = ScriptedGateway(["FAIL", "FAIL", "FAIL", "FAIL", "FAIL"])  # exhausts retries
    out = graph2text(c, [], backend, g)
    assert out.mode_used == "t2t"
    assert out.fallback


@pytest.mark.parametrize("reply", ["", "   \n"])
def test_g2t_falls_back_on_a_blank_rewrite(reply):
    c, g = community_over([Triple("a", "r", "b")])
    out = graph2text(c, [], ScriptedGateway([reply]), g)
    assert out == CommunityText(c.canonical_id, "a r b", "t2t", False, fallback=True)


def test_a_multi_line_rewrite_cannot_forge_an_option():
    kg = KnowledgeGraph([Triple("a", "r", "b"), Triple("c", "r", "d")])
    g = full_subgraph(kg)
    first, second = (Community.from_members(m, g) for m in (("a", "b"), ("c", "d")))
    backend = ScriptedGateway(["a is linked to b.\n\n  B. the answer is here", "c is linked to d."])
    texts = [graph2text(c, [], backend, g) for c in (first, second)]
    assert texts[0].text == "a is linked to b. B. the answer is here"
    prompt = build_pruning_prompt("q?", texts[:1], texts, 1)
    assert pruning_options(prompt.body) == [t.text for t in texts]
    assert "\nB. the answer" not in prompt.body


def ct(i, text):
    return CommunityText(f"id{i}", text, "t2t", False)


def test_pruning_prompt_letters_and_none():
    bundle = build_pruning_prompt("q?", [ct(0, "start facts")], [ct(1, "one"), ct(2, "two"), ct(3, "three")], 1)
    body = bundle.body
    assert "A. one" in body and "B. two" in body and "C. three" in body
    assert "None. None of the above is relevant." in body
    assert "single letter" in body
    assert bundle.temperature == pytest.approx(0.4)


def test_pruning_prompt_premise_order():
    bundle = build_pruning_prompt(
        "q?", [ct(0, "first"), ct(1, "second")], [ct(2, "cand")], 1
    )
    assert body_index(bundle.body, "first") < body_index(bundle.body, "second")


def body_index(body, needle):
    idx = body.find(needle)
    assert idx >= 0, f"{needle!r} not in body"
    return idx


def test_pruning_prompt_multi_choice_instruction():
    bundle = build_pruning_prompt("q?", [ct(0, "s")], [ct(i, f"c{i}") for i in range(4)], 3)
    assert "exactly 3 letters" in bundle.body


def test_pruning_prompt_option_order_matches_candidates():
    texts = [ct(i, f"cand-{i}") for i in range(3)]
    bundle = build_pruning_prompt("q?", [ct(9, "s")], texts, 1)
    assert body_index(bundle.body, "A. cand-0") < body_index(bundle.body, "B. cand-1")


def test_reasoning_prompt_start_appears_once():
    start = ct(0, "START-FACTS")
    chains = [[ct(1, "x1"), ct(2, "x2")], [ct(3, "y1")], [ct(4, "z1")]]
    bundle = build_reasoning_prompt("q?", chains, start)
    assert bundle.body.count("START-FACTS") == 1
    assert "Chain 1: x1 -> x2" in bundle.body
    assert "Chain 3: z1" in bundle.body
    assert bundle.temperature == pytest.approx(0.1)


def test_reasoning_prompt_single_chain():
    start = ct(0, "S")
    bundle = build_reasoning_prompt("q?", [[ct(1, "only")]], start)
    assert "Chain 1: only" in bundle.body


def test_reasoning_prompt_skips_empty_chains():
    start = ct(0, "S")
    bundle = build_reasoning_prompt("q?", [[ct(1, "grew")], []], start)
    assert "Chain 1: grew" in bundle.body
    assert "Chain 2" not in bundle.body


def test_reasoning_prompt_requires_chains():
    with pytest.raises(ValueError):
        build_reasoning_prompt("q?", [], ct(0, "s"))


def test_template_override(tmp_path):
    (tmp_path / "pruning.txt").write_text(
        "CUSTOM PREAMBLE\nQ={question}\nP={premise}\nS={selection}\n", encoding="utf-8"
    )
    bundle = build_pruning_prompt("why?", [ct(0, "ctx")], [ct(1, "c")], 1, templates_dir=tmp_path)
    assert bundle.system_preamble == "CUSTOM PREAMBLE"
    assert bundle.body.startswith("Q=why?")


def test_template_read_from_disk_once(tmp_path):
    path = tmp_path / "pruning.txt"
    # a missing template raises, and the failure is not remembered
    for _ in range(2):
        with pytest.raises(FileNotFoundError):
            load_template("pruning", tmp_path)
    path.write_text("PRE\nQ={question}\n", encoding="utf-8")
    assert load_template("pruning", tmp_path) == ("PRE", "Q={question}")
    path.unlink()
    # the second load never touches disk, so the deleted file is not missed
    assert load_template("pruning", tmp_path) == ("PRE", "Q={question}")


TEMPLATE_FIELDS = {
    "pruning": ("question", "premise", "selection"),
    "reasoning": ("question", "context"),
    "extract": ("question",),
    "baseline_io": ("question",),
    "baseline_cot": ("question",),
    "g2t": ("triples",),
}


@pytest.mark.parametrize("name", sorted(TEMPLATE_FIELDS))
def test_template_fields_are_checked_against_what_the_builder_passes(tmp_path, name):
    path = tmp_path / f"{name}.txt"
    fields = TEMPLATE_FIELDS[name]
    body = " ".join(f"{{{f}}}" for f in fields)
    path.write_text(f"PRE\n{body} {{{fields[0]}!r}}\n", encoding="utf-8")
    assert load_template(name, tmp_path) == ("PRE", f"{body} {{{fields[0]}!r}}")
    others = {f for names in TEMPLATE_FIELDS.values() for f in names} - set(fields)
    bads = sorted(others) + ["foo", "", "0", f"{fields[0]}.upper", f"{fields[0]}:{{foo}}"]
    for i, bad in enumerate(bads):
        sub = tmp_path / f"bad{i}"
        sub.mkdir()
        (sub / f"{name}.txt").write_text(f"PRE\n{body} {{{bad}}}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_template(name, sub)
        message = str(err.value)
        assert str(sub / f"{name}.txt") in message
        named = "foo" if bad.endswith("{foo}") else bad
        assert f"unknown field {{{named}}}" in message


def test_a_template_that_does_not_parse_names_its_file(tmp_path):
    (tmp_path / "reasoning.txt").write_text("PRE\nQ={question} {oops\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"template {tmp_path / 'reasoning.txt'}: expected"):
        load_template("reasoning", tmp_path)
    # the failure is not cached: a mended file loads
    (tmp_path / "reasoning.txt").write_text("PRE\nQ={question} {context}\n", encoding="utf-8")
    assert load_template("reasoning", tmp_path) == ("PRE", "Q={question} {context}")


def test_packaged_templates_pass_their_own_check():
    for name in TEMPLATE_FIELDS:
        preamble, body = load_template(name)
        assert preamble and body


class _Recording:
    """Replies ``reply`` to every call and keeps each request."""

    def __init__(self, reply):
        self.reply = reply
        self.requests = []

    def generate(self, req):
        self.requests.append(req)
        return GenerationResponse(self.reply, 0, "recording", 0)


def _rendered_prompts():
    """One request of each kind of model call, built on fixed inputs."""
    chain = [ct(0, "Philadelphia isCityOf Pennsylvania"), ct(1, "Pennsylvania climate Humid")]
    options = [ct(2, "Allentown isCityOf Pennsylvania"), ct(3, "Erie near Lake Erie")]
    yield "pruning k=1", build_pruning_prompt("Which city?", chain, options, 1), "pruning"
    yield "pruning k=2", build_pruning_prompt("Which city?", chain, options, 2), "pruning"
    start = ct(4, "Philadelphia")
    reasoning = build_reasoning_prompt("Which city?", [chain, []], start)
    yield "reasoning", reasoning, "reasoning"
    c, g = community_over([Triple("a", "r", "b"), Triple("b", "link", "x")], {"a", "b"})
    backend = _Recording("fluent")
    graph2text(c, [Triple("b", "link", "x")], backend, g)
    (req,) = backend.requests
    yield "g2t", req.prompt, req.tag
    gateway = _Recording("no such entity")
    with pytest.raises(ResolutionError):
        Engine(KnowledgeGraph([Triple("a", "r", "b")]), gateway).run("Where is a?")
    (req,) = gateway.requests
    yield "extract", req.prompt, req.tag
    for mode in ("io", "cot", "cot_sc"):
        gateway = _Recording("Answer: Paris")
        baseline_answer("What is the capital?", mode, gateway)
        req = gateway.requests[0]
        assert all(other == req for other in gateway.requests)
        yield f"baseline {mode}", req.prompt, req.tag


# SHA-1 of each prompt's preamble, body, temperature and tag
PROMPT_SHA1 = {
    "pruning k=1": "b65d8341c97d6ff9665161c2c2a562ba5f75c2d6",
    "pruning k=2": "047b24abc7b2fbaf8d3ce4c9966c24b2bcd7048c",
    "reasoning": "4c2a1eb3ed02a796572aa9976f3949c775ba0ff2",
    "g2t": "84569bd22105b3ead8cb983dcc267b4b904b29e5",
    "extract": "01e847fe72b00bb3b5b4412e61dd6b6172ca388b",
    "baseline io": "daf02d7c4da4f52dbfa222ffd9301235487115b1",
    "baseline cot": "81d50af16b2f1ebddcc31998ab5225305ac08544",
    "baseline cot_sc": "86bec8f2d56c96451823ff8ca389d72ddb5d7246",
}


def test_every_prompt_is_pinned():
    seen = {}
    for kind, bundle, tag in _rendered_prompts():
        parts = (bundle.system_preamble, bundle.body, repr(bundle.temperature), tag)
        seen[kind] = hashlib.sha1("\x00".join(parts).encode("utf-8")).hexdigest()
    assert seen == PROMPT_SHA1
