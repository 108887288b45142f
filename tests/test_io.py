import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rescuepd import (build_collaborative_schedule,
                      build_derived_index, parse_newick, pd_of_subset,
                      to_newick, verify_schedule)
from rescuepd.errors import (DuplicateLeaf, NonIntegerWeight, ParseError,
                            RescuePDError)
from rescuepd.files import (instance_from_dict, instance_to_dict,
                            load_instance, load_schedule, save_instance,
                            save_schedule)
from rescuepd.generators import TREE_SHAPES, gen_random_instance
from rescuepd.model import MODES

from reference import parse_newick_recursive, to_newick_recursive


def test_parse_simple_star():
    tree = parse_newick("(a:1,b:2);")
    assert tree.is_star()
    assert tree.weight == {"a": 1, "b": 2}


def test_parse_binary():
    tree = parse_newick("((a:1,b:1):1,(c:1,d:1):1);")
    assert tree.is_binary()
    assert len(tree.weight) == 6
    assert tree.taxa == ("a", "b", "c", "d")


def test_parse_errors():
    with pytest.raises(NonIntegerWeight):
        parse_newick("(a:1.5,b:2);")
    with pytest.raises(NonIntegerWeight):
        parse_newick("(a:0,b:2);")
    with pytest.raises(DuplicateLeaf):
        parse_newick("(a:1,a:2);")
    with pytest.raises(ParseError):
        parse_newick("(a:1,b:2)")      # missing semicolon
    with pytest.raises(ParseError):
        parse_newick("(a:1,b:2):3;")   # weight on the root
    with pytest.raises(ParseError):
        parse_newick("(a:1,b);")       # missing branch length
    try:
        parse_newick("(a:1,b:2)x;;")
    except ParseError as exc:
        assert "byte" in str(exc)


def test_wide_star_parses_in_linear_time():
    # the root search once tested every vertex against every child list:
    # 16,000 leaves took 3 s, and 40,000 would take about 20 s
    text = "(" + ",".join(f"x{i}:1" for i in range(40_000)) + ");"
    t0 = time.perf_counter()
    tree = parse_newick(text)
    assert time.perf_counter() - t0 < 5
    assert tree.is_star() and len(tree.taxa) == 40_000


def test_newick_roundtrip():
    for seed in range(12):
        inst = gen_random_instance(n=6, seed=seed,
                                   tree_shape="random-multifurcating")
        text = to_newick(inst.tree)
        back = parse_newick(text)
        assert back.taxa == inst.tree.taxa
        assert to_newick(back) == text
        assert back.weight == inst.tree.weight
        for subset in ([], list(inst.tree.taxa[:2]), list(inst.tree.taxa)):
            assert pd_of_subset(back, subset) == pd_of_subset(inst.tree, subset)


def test_instance_roundtrip(tmp_path):
    inst = gen_random_instance(n=5, seed=7)
    path = tmp_path / "instance.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert instance_to_dict(back) == instance_to_dict(inst)
    # byte-exact re-serialization
    save_instance(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == path.read_text()


def test_instance_schema_errors():
    inst = gen_random_instance(n=4, seed=1)
    data = instance_to_dict(inst)
    bad = dict(data)
    bad["v"] = 2
    with pytest.raises(ParseError):
        instance_from_dict(bad)
    bad = dict(data)
    del bad["teams"]
    with pytest.raises(ParseError):
        instance_from_dict(bad)
    bad = dict(data)
    bad["taxa"] = {"zz": {"ell": 1, "ex": 1}}
    with pytest.raises(ParseError):
        instance_from_dict(bad)


def test_schedule_roundtrip(tmp_path):
    inst = gen_random_instance(n=5, seed=3, target=0)
    idx = build_derived_index(inst)
    feasible = [x for x in inst.tree.taxa][:2]
    from rescuepd import collaborative_feasible
    while feasible and not collaborative_feasible(idx, feasible):
        feasible.pop()
    sched = build_collaborative_schedule(idx, feasible)
    pd_value = pd_of_subset(inst.tree, feasible)
    path = tmp_path / "schedule.json"
    save_schedule(sched, pd_value, path)
    back, pd_back = load_schedule(path)
    assert pd_back == pd_value
    assert back.assignment == sched.assignment
    assert tuple(back.saved) == tuple(sched.saved)
    assert verify_schedule(inst, back).ok
    save_schedule(back, pd_back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == path.read_text()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@st.composite
def instance_dicts(draw):
    """Generated instance dicts with some values replaced by arbitrary JSON."""
    inst = gen_random_instance(n=draw(st.integers(2, 5)),
                               seed=draw(st.integers(0, 40)),
                               mode=draw(st.sampled_from(MODES)))
    data = instance_to_dict(inst)
    for _ in range(draw(st.integers(0, 3))):
        value = draw(JSON_VALUES)
        where = draw(st.sampled_from(("whole", "field", "taxon", "team")))
        if where == "whole":
            return value
        if where == "field":
            data[draw(st.sampled_from(sorted(data)))] = value
        elif where == "taxon" and isinstance(data.get("taxa"), dict) and data["taxa"]:
            entry = data["taxa"][draw(st.sampled_from(sorted(data["taxa"])))]
            if isinstance(entry, dict):
                entry[draw(st.sampled_from(("ell", "ex")))] = value
        elif where == "team" and isinstance(data.get("teams"), list) and data["teams"]:
            team = data["teams"][draw(st.integers(0, len(data["teams"]) - 1))]
            key = draw(st.sampled_from(("start", "end")))
            if isinstance(team, dict) and value is None:
                team.pop(key, None)
            elif isinstance(team, dict):
                team[key] = value
    return data


@given(instance_dicts())
@settings(max_examples=300, deadline=None)
def test_instance_dict_roundtrips_or_raises(data):
    try:
        inst = instance_from_dict(data)
    except RescuePDError:
        return
    assert instance_from_dict(instance_to_dict(inst)) == inst


def test_deeply_nested_newick_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_newick("(" * 5000 + "a:1,b:1" + "):1" * 4999 + ");")


NEWICK_LABELS = st.sampled_from(("a", "b", "c", "x1", "T-2", "s.3", "_1", "_2", "_9"))
NEWICK_LENGTHS = st.sampled_from(("1", "2", "7", "0", "+3", "1.5", "-1", ""))


@st.composite
def newick_texts(draw):
    """Newick texts: trees rendered with arbitrary labels and lengths, some
    of them then cut or spliced with Newick tokens."""
    def render(depth):
        if depth == 0 or draw(st.booleans()):
            return draw(NEWICK_LABELS)
        kids = [f"{render(depth - 1)}:{draw(NEWICK_LENGTHS)}"
                for _ in range(draw(st.integers(1, 3)))]
        label = draw(st.just("") | NEWICK_LABELS)
        return "(" + ",".join(kids) + ")" + label
    text = render(3) + draw(st.sampled_from((";", ";", ";", "", ":1;", "; x")))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        token = draw(st.sampled_from(("", "(", ")", ",", ":", ";", "a", "_1", " ", "1")))
        text = text[:at] + token + text[at + cut:]
    return text


@given(newick_texts())
# written back without the label _9, the inner vertex once got the fresh
# name _1 of a leaf that comes later
@example("((a:1,b:1)_9:1,_1:1);")
@settings(max_examples=400, deadline=None)
def test_newick_roundtrips_or_raises(text):
    try:
        tree = parse_newick(text)
    except RescuePDError:
        return
    again = parse_newick(to_newick(tree))
    assert to_newick(again) == to_newick(tree)
    assert again.taxa == tree.taxa
    assert again.total_weight() == tree.total_weight()


@given(newick_texts())
@settings(max_examples=400, deadline=None)
def test_newick_parser_agrees_with_the_recursive_oracle(text):
    """Where the recursive parser reads a tree, the one-loop parser reads the
    same root, child lists and weights, and writes the same text; where it
    raises, so does the loop."""
    try:
        expected = parse_newick_recursive(text)
    except RescuePDError:
        with pytest.raises(RescuePDError):
            parse_newick(text)
        return
    tree = parse_newick(text)
    assert (tree.root, tree.children, tree.weight) == \
        (expected.root, expected.children, expected.weight)
    assert to_newick(tree) == to_newick_recursive(expected)


def test_to_newick_agrees_with_the_recursive_oracle():
    for shape in TREE_SHAPES:
        for seed in range(25):
            tree = gen_random_instance(n=2 + seed, seed=seed, tree_shape=shape).tree
            assert to_newick(tree) == to_newick_recursive(tree)


def test_deep_caterpillar_round_trips(tmp_path):
    """A 5,000-leaf caterpillar nests about 5,000 deep, past the recursion
    limit; neither Newick direction recurses, so its file reads back."""
    inst = gen_random_instance(n=5000, tree_shape="caterpillar")
    path = tmp_path / "deep.json"
    save_instance(inst, path)
    assert load_instance(path) == inst


@pytest.mark.parametrize("text", [None, 5])
def test_newick_text_that_is_not_a_str_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_newick(text)
