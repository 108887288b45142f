import json

import pytest

from rescuepd import build_derived_index
from rescuepd.cli import main
from rescuepd.driver import applicable_algorithms
from rescuepd.files import instance_to_dict, load_instance, save_instance
from rescuepd.generators import gen_random_instance, reduce_subset_sum

from conftest import split_rescue


@pytest.fixture
def prop5_file(tmp_path, prop5_instance):
    path = tmp_path / "prop5.json"
    save_instance(prop5_instance, path)
    return path


def test_solve_star_exit_yes(prop5_file, capsys):
    code = main(["solve", "--instance", str(prop5_file),
                 "--algorithm", "star"])
    out = capsys.readouterr().out
    assert code == 0
    assert "decision: yes" in out and "pd: 19" in out


def test_solve_trivial_no_exit_3(tmp_path, capsys):
    inst = gen_random_instance(n=4, seed=2)
    idx = build_derived_index(inst)
    hopeless = type(inst)(inst.tree, inst.taxa, inst.teams, idx.pd_total + 1)
    path = tmp_path / "no.json"
    save_instance(hopeless, path)
    assert main(["solve", "--instance", str(path)]) == 3


def test_solve_fptd_with_output(tmp_path, capsys):
    inst = gen_random_instance(n=5, seed=6, target=3)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    out_path = tmp_path / "schedule.json"
    code = main(["solve", "--instance", str(path), "--algorithm", "fpt-d",
                 "--seed", "1", "--delta", "0.01",
                 "--output", str(out_path)])
    text = capsys.readouterr().out
    if code == 0:
        assert out_path.exists()
        assert main(["verify", "--instance", str(path),
                     "--schedule", str(out_path)]) == 0
    else:
        assert code == 3


def test_solve_determinism(tmp_path, capsys):
    inst = gen_random_instance(n=5, seed=9, target=4)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    outs = []
    for _ in range(2):
        main(["solve", "--instance", str(path), "--algorithm", "fpt-d",
              "--seed", "7"])
        text = capsys.readouterr().out
        outs.append("\n".join(line for line in text.splitlines()
                              if not line.startswith("wall_s")))
    assert outs[0] == outs[1]


def test_pd_subcommand(prop5_file, capsys):
    assert main(["pd", "--instance", str(prop5_file),
                 "--taxa", "x1,x2,x3"]) == 0
    assert capsys.readouterr().out.strip() == "27"
    assert main(["pd", "--instance", str(prop5_file), "--taxa", ""]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_gen_subcommands(tmp_path, capsys):
    out = tmp_path / "gen.json"
    assert main(["gen", "--kind", "random", "--n", "5", "--seed", "3",
                 "--out", str(out)]) == 0
    inst = load_instance(out)
    assert len(inst.taxa) == 5
    out2 = tmp_path / "ss.json"
    assert main(["gen", "--kind", "subset-sum", "--values", "1,2,3",
                 "--k", "2", "--goal", "5", "--pad", "7",
                 "--out", str(out2)]) == 0
    assert instance_to_dict(load_instance(out2)) == \
        instance_to_dict(reduce_subset_sum([1, 2, 3], 2, 5, 7))


def test_gen_writes_a_deep_caterpillar(tmp_path):
    out = tmp_path / "deep.json"
    assert main(["gen", "--shape", "caterpillar", "--n", "1200", "--seed", "4",
                 "--out", str(out)]) == 0
    assert load_instance(out) == gen_random_instance(
        n=1200, tree_shape="caterpillar", seed=4)


def test_unknown_flag_exits_1():
    assert main(["solve", "--instance", "x.json", "--nope"]) == 1


def test_missing_file_exits_1(capsys):
    assert main(["solve", "--instance", "/does/not/exist.json"]) == 1


def test_bench_subcommand(tmp_path, capsys):
    sweep = {
        "delta": 1e-3,
        "seed": 0,
        "families": [
            {"name": "tiny", "count": 6, "seed0": 0, "n": 4, "n_teams": 1,
             "max_ex": 4, "max_len": 3, "max_weight": 2},
            {"name": "tiny-strict", "count": 4, "seed0": 10, "n": 4,
             "n_teams": 2, "max_ex": 3, "max_len": 2, "max_weight": 2,
             "mode": "strict"},
        ],
    }
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(sweep))
    csv_path = tmp_path / "bench.csv"
    code = main(["bench", "--sweep", str(sweep_path), "--out", str(csv_path)])
    text = capsys.readouterr().out
    assert code == 0, text
    assert "disagreements: 0" in text
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("instance_id,family,")
    assert len(lines) > 10


@pytest.mark.parametrize("n", [9, 14])
def test_bench_subcommand_on_strict_instances_past_eight_taxa(tmp_path, capsys, n):
    """The oracle of a bench is brute at its own guard, so strict sweeps of
    9 and 14 taxa are cross-checked rather than refused."""
    sweep = {"families": [{"name": "strict", "count": 2, "seed0": 0, "n": n,
                           "n_teams": 2, "max_ex": 6, "max_len": 3,
                           "mode": "strict"}]}
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(sweep))
    csv_path = tmp_path / "bench.csv"
    code = main(["bench", "--sweep", str(sweep_path), "--out", str(csv_path)])
    text = capsys.readouterr().out
    assert code == 0, text
    assert "disagreements: 0" in text
    algorithms = [line.split(",")[7] for line in csv_path.read_text().splitlines()[1:]]
    assert algorithms.count("brute") == 2 and len(algorithms) > 2, algorithms


TINY = {"count": 1, "n": 4, "n_teams": 1, "max_ex": 4, "max_len": 3,
        "max_weight": 2}


@pytest.mark.parametrize("command", [
    ["bench", {}],
    ["bench", []],
    ["bench", {"families": [{k: v for k, v in TINY.items() if k != "count"}]}],
    ["bench", {"families": [dict(TINY, depth=3)]}],
    ["bench", {"families": [dict(TINY, n="6")]}],
    ["bench", {"families": [dict(TINY, count=True)]}],
    ["bench", {"families": [TINY], "delta": "x"}],
    ["bench", {"families": [TINY], "seed": "x"}],
    ["bench", {"families": [TINY], "dleta": 0.5}],
    ["bench", {"families": [TINY]}, "--jobs", "0"],
    ["bench", {"families": [TINY]}, "--jobs", "-2"],
    ["gen", "--kind", "subset-sum", "--k", "1", "--goal", "3"],
    ["gen", "--kind", "subset-sum", "--values", "1,2", "--goal", "3"],
    ["gen", "--kind", "subset-sum", "--values", "1,2", "--k", "1"],
    ["gen", "--kind", "subset-sum", "--values", "1,x", "--k", "1", "--goal", "3"],
], ids=["sweep-empty-object", "sweep-list", "family-without-count",
        "unknown-generator-key", "n-as-string", "count-as-bool",
        "delta-as-string", "seed-as-string", "unknown-spec-key", "zero-jobs",
        "negative-jobs", "no-values",
        "no-k", "no-goal", "values-not-integers"])
def test_bad_cli_input_is_a_clean_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    if command[0] == "bench":
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps(command[1]))
        command = ["bench", "--sweep", str(sweep)] + command[2:]
    assert main(command + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_auto_order_prefers_star(prop5_instance):
    algs = applicable_algorithms(prop5_instance)
    assert algs[0] == "star"
    assert "brute" in algs


def test_mode_override(tmp_path):
    inst = gen_random_instance(n=4, n_teams=2, max_ex=4, max_len=3,
                               max_weight=2, seed=21)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    code = main(["solve", "--instance", str(path), "--mode", "strict",
                 "--algorithm", "brute"])
    assert code in (0, 3)


def test_seed_env_default(monkeypatch):
    monkeypatch.setenv("TPD_SEED", "77")
    from rescuepd.cli import build_parser
    args = build_parser().parse_args(["solve", "--instance", "x"])
    assert args.seed == 77


def test_bad_seed_is_a_clean_error(tmp_path, monkeypatch, capsys):
    path = tmp_path / "inst.json"
    save_instance(gen_random_instance(n=5, seed=6, target=3), path)
    solve = ["solve", "--instance", str(path), "--algorithm", "fpt-d"]
    assert main(solve + ["--seed=-1"]) == 1
    assert "seed must be non-negative" in capsys.readouterr().err
    assert main(solve + ["--seed", "1", "--delta", "2"]) == 1
    assert "delta must be" in capsys.readouterr().err
    monkeypatch.setenv("TPD_SEED", "x")
    assert main(solve) == 1
    assert "TPD_SEED" in capsys.readouterr().err
    assert main(solve + ["--seed", "3"]) in (0, 3)


def test_bench_jobs_deterministic(tmp_path):
    from rescuepd.driver import run_bench
    items = [(i, "tiny", gen_random_instance(n=4, n_teams=1, max_ex=4,
                                             max_len=3, max_weight=2,
                                             seed=400 + i))
             for i in range(6)]
    rows1, dis1, fn1, rr1 = run_bench(items, 1e-3, seed=0, jobs=1)
    rows2, dis2, fn2, rr2 = run_bench(items, 1e-3, seed=0, jobs=2)
    strip = lambda rows: [(r.instance_id, r.algorithm, r.decision, r.value,
                           r.trials) for r in rows]
    assert strip(rows1) == strip(rows2)
    assert (dis1, fn1, rr1) == (dis2, fn2, rr2)


def test_bench_starts_at_most_one_worker_per_instance(monkeypatch):
    """A stand-in pool records its size and runs each call inline, so no
    process starts: --jobs 64 on two instances sizes the pool at 2, and a
    single instance or a single job runs without a pool."""
    import concurrent.futures
    from rescuepd.driver import run_bench
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    items = [(i, "tiny", gen_random_instance(n=4, n_teams=1, max_ex=4, max_len=3,
                                             max_weight=2, seed=400 + i))
             for i in range(2)]
    strip = lambda rows: [(r.instance_id, r.algorithm, r.decision, r.value,
                           r.trials) for r in rows]
    serial = run_bench(items, 1e-3, seed=0, jobs=1)
    pooled = run_bench(items, 1e-3, seed=0, jobs=64)
    assert sizes == [2]
    assert strip(pooled[0]) == strip(serial[0]) and pooled[1:] == serial[1:]
    run_bench(items[:1], 1e-3, seed=0, jobs=8)
    assert sizes == [2]


def test_all_guards_exceeded_exit_2(tmp_path):
    inst = gen_random_instance(n=10, n_teams=3, max_ex=8, max_len=6,
                               max_weight=5, seed=33, mode="strict")
    path = tmp_path / "big.json"
    save_instance(inst, path)
    assert main(["solve", "--instance", str(path)]) == 2


def test_disagreement_triage_helpers():
    from rescuepd.driver import disagreement_report, smallest_disagreement
    small = gen_random_instance(n=4, seed=1)
    big = gen_random_instance(n=6, seed=2)
    entries = [
        (3, (3, "fam", big), ("fpt-d", True, False)),
        (5, (5, "fam", small), ("star", False, True)),
    ]
    picked = smallest_disagreement(entries)
    assert picked[0] == 5
    report = disagreement_report(picked)
    assert report["algorithm"] == "star"
    assert report["oracle_decision"] is False
    assert report["instance"]["taxa"]


def shared_slot_schedule(**changes):
    """The yes schedule of split_rescue("collaborative"), as a file dict."""
    data = {"mode": "collaborative",
            "assignments": [{"team": 0, "slot": 1, "taxon": "a"},
                            {"team": 1, "slot": 1, "taxon": "a"}],
            "saved": ["a"], "pd": 3}
    data.update(changes)
    return {k: v for k, v in data.items() if v is not None}


@pytest.mark.parametrize("schedule", [
    shared_slot_schedule(assignments=None),
    shared_slot_schedule(assignments=[{"team": 0, "taxon": "a"}]),
    shared_slot_schedule(pd="x"),
    [shared_slot_schedule()],
    shared_slot_schedule(mode="weird"),
    shared_slot_schedule(assignments=[{"team": 0, "slot": 1, "taxon": "z"}]),
    shared_slot_schedule(saved=["a", "z"]),
    shared_slot_schedule(assignments=[{"team": 0, "slot": 1, "taxon": "a"},
                                      {"team": 0, "slot": 1, "taxon": "b"}]),
], ids=["no-assignments", "no-slot", "pd-not-integer", "top-level-list",
        "unknown-mode", "unknown-taxon-assigned", "unknown-taxon-saved",
        "slot-booked-twice"])
def test_malformed_schedule_is_a_clean_error(tmp_path, capsys, schedule):
    instance = tmp_path / "inst.json"
    save_instance(split_rescue("collaborative"), instance)
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(shared_slot_schedule()))
    verify = ["verify", "--instance", str(instance), "--schedule", str(path)]
    assert main(verify) == 0
    capsys.readouterr()
    path.write_text(json.dumps(schedule))
    assert main(verify) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_and_solve_follow_the_instances_mode(tmp_path, capsys):
    instance = tmp_path / "strict.json"
    save_instance(split_rescue("strict"), instance)
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(shared_slot_schedule()))
    assert main(["verify", "--instance", str(instance), "--schedule", str(path)]) == 3
    out = capsys.readouterr().out
    assert "valid+saving: False" in out and "mode mismatch" in out
    assert main(["solve", "--instance", str(instance), "--algorithm", "hours-teams"]) == 1
    assert "error: " in capsys.readouterr().err
    assert main(["solve", "--instance", str(instance), "--algorithm", "brute"]) == 3
