"""End-to-end command-line tests: outputs, determinism, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import hyperb
from hyperb import _tables, bcoloring, bounds, cli
from hyperb.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_csv_on_stdout(self, capsys):
        code, out, _ = run(["table", "--n", "5..12", "--format", "csv"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,p,clique,lower,upper_old,upper_rough,upper_new"
        assert "7,5,44,64,86,78,73" in lines

    def test_empty_range(self, capsys):
        code, out, _ = run(["table", "--n", "9..5"], capsys)
        assert code == 0
        assert out.splitlines() == ["n,p,clique,lower,upper_old,upper_rough,upper_new"]

    def test_json_format(self, capsys):
        code, out, _ = run(["table", "--n", "7", "--p", "5", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["rows"][0]["upper_new"] == 73

    def test_unwritable_path(self, capsys, tmp_path):
        bad = tmp_path / "no_such_dir" / "t.csv"
        code, _, err = run(["table", "--n", "5", "--output", str(bad)], capsys)
        assert code == 2
        assert "cannot write" in err

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--theorem", "close", "--n", "5", "--p", "2",
                "--samples", "300", "--seed", "9"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_close_exhaustive(self, capsys):
        code, out, err = run(
            ["verify", "--theorem", "close", "--n", "4", "--p", "2", "--exhaustive"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        report = payload["reports"][0]
        assert report["families_checked"] == 65536
        assert report["violations"] == []

    def test_close_infeasible_exhaustive(self, capsys):
        code, _, err = run(
            ["verify", "--theorem", "close", "--n", "5", "--p", "2", "--exhaustive"],
            capsys,
        )
        assert code == 3
        assert "exhaustive" in err

    def test_sample_requires_seed(self, capsys):
        code, _, err = run(
            ["verify", "--theorem", "close", "--n", "5", "--p", "2"], capsys
        )
        assert code == 2
        assert "--seed" in err

    def test_missing_n_is_usage_error(self, capsys):
        code, _, err = run(["verify", "--theorem", "close"], capsys)
        assert code == 2 and "--n" in err

    def test_coset(self, capsys):
        code, out, _ = run(
            ["verify", "--theorem", "coset", "--n", "4", "--q", "3", "--p", "3"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"][0]["certificate"]["valid_b"] is True
        assert payload["results"][0]["certificate"]["k"] == 27

    def test_r3s(self, capsys):
        code, out, _ = run(["verify", "--theorem", "r3s", "--n-max", "64"], capsys)
        assert code == 0
        assert json.loads(out)["reports"][0]["violations"] == []

    def test_fixpoint(self, capsys):
        code, out, _ = run(["verify", "--theorem", "fixpoint", "--n", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["reports"][0]["families_checked"] == 256

    def test_fixpoint_edge_grounds(self, capsys):
        code, out, _ = run(["verify", "--theorem", "fixpoint", "--n", "0..1"], capsys)
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [(r["n"], r["families_checked"], r["violations"]) for r in reports] == [
            (0, 2, []), (1, 4, [])
        ]
        assert [r["details"] for r in reports] == [
            {"kinds": {"exceptional_even": 0, "exceptional_odd": 0, "initial_segment": 2},
             "max_steps": 0},
            {"kinds": {"exceptional_even": 0, "exceptional_odd": 1, "initial_segment": 3},
             "max_steps": 0},
        ]

    def test_section_at_n10_takes_the_rank_pass(self, capsys):
        # 1024 samples are 2^10 families: the rank pass runs above n = 9
        code, out, _ = run(
            ["verify", "--theorem", "section", "--n", "10", "--samples", "1024", "--seed", "3"],
            capsys,
        )
        assert code == 0
        (report,) = json.loads(out)["reports"]
        assert report["families_checked"] == 1024 and report["violations"] == []

    def test_simplicial(self, capsys):
        code, out, _ = run(["verify", "--theorem", "simplicial", "--n", "6"], capsys)
        assert code == 0

    def test_closedform_defaults_to_valid_range(self, capsys):
        code, out, _ = run(["verify", "--theorem", "closedform", "--n", "7"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert [r["p"] for r in payload["reports"]] == [4, 5]


class TestSolve:
    def test_hypercube(self, capsys):
        code, out, _ = run(["solve", "--hypercube", "3", "--p", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 4 and payload["exact"] is True
        assert payload["certificate"]["valid_b"] is True
        assert len(payload["witness"]["assignment"]) == 8

    def test_small_cycle(self, capsys):
        code, out, _ = run(["solve", "--hypercube", "2", "--p", "1"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 2

    def test_hamming(self, capsys):
        code, out, _ = run(["solve", "--hamming", "2,3", "--p", "1"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 3

    @pytest.mark.parametrize("instance", [["--hypercube", "1"], ["--hamming", "1,2"]])
    def test_single_edge(self, capsys, instance):
        # Q_1^1 and H(1,2)^1 are both K_2, which no paper bound covers
        code, out, _ = run(["solve", *instance, "--p", "1"], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 2

    def test_budget_exit_code(self, capsys):
        code, out, _ = run(
            ["solve", "--hypercube", "3", "--p", "1", "--max-nodes", "2"], capsys
        )
        assert code == 4
        payload = json.loads(out)  # partial result still emitted
        assert payload["exact"] is False
        assert payload["value"] >= 2

    def test_requires_exactly_one_instance(self, capsys):
        code, _, err = run(["solve", "--p", "1"], capsys)
        assert code == 2

    def test_node_budget_stop_is_deterministic(self, capsys, tmp_path):
        # a node cap stops the search at the same node every time; only a
        # --max-seconds stop depends on the clock
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["solve", "--hypercube", "4", "--p", "2", "--max-nodes", "5000"]
        assert main(args + ["--output", str(a)]) == 4
        assert main(args + ["--output", str(b)]) == 4
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["exact"] is False

    @pytest.mark.parametrize("cap", [0, 2, 5000])
    def test_node_cap_bounds_the_report(self, capsys, cap):
        # the cap is tested before a node is counted, so a stopped solve
        # reports exactly the cap
        code, out, _ = run(
            ["solve", "--hypercube", "4", "--p", "2", "--max-nodes", str(cap)], capsys
        )
        assert code == 4
        payload = json.loads(out)
        assert (payload["exact"], payload["nodes"]) == (False, cap)

    def test_node_cap_inside_the_prefix_test(self, capsys):
        # Q_4^3's refuted k are decided by seed-prefix tests alone; a cap
        # there still stops at the cap, and the report says where it stopped
        code, out, _ = run(
            ["solve", "--hypercube", "4", "--p", "3", "--max-nodes", "100"], capsys
        )
        assert code == 4
        payload = json.loads(out)
        assert (payload["exact"], payload["nodes"]) == (False, 100)
        assert payload["upper"] == {"value": 15, "source": "delta+1"}
        assert [e["k"] for e in payload["nodes_by_k"]] == [15, 14, 13, 12, 11]
        assert sum(e["nodes"] for e in payload["nodes_by_k"]) == 100
        # the prefixes cut at each k, by reason, up to the stop
        assert [e["k"] for e in payload["cuts_by_k"]] == [15, 14, 13, 12, 11]
        assert payload["cuts_by_k"][0] == {
            "k": 15, "symmetry": 7, "translation": 1, "coverage": 1
        }

    def test_time_budget_stops_a_long_search(self, capsys):
        # Q_6^5 runs far past a second; every prefix tested is a node, so
        # the deadline, checked every 4096 nodes, is seen within a few seconds
        start = time.monotonic()
        code, out, _ = run(
            ["solve", "--hypercube", "6", "--p", "5", "--max-seconds", "1"], capsys
        )
        assert code == 4
        assert json.loads(out)["exact"] is False
        assert time.monotonic() - start < 6

    def test_complete_graph_needs_no_search(self, capsys):
        # H(1, q) is K_q: greedy meets the bound, so no k is searched and
        # nothing is built for the search, even at the vertex cap
        start = time.monotonic()
        code, out, _ = run(["solve", "--hamming", "1,1024", "--p", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert (payload["value"], payload["exact"], payload["nodes"]) == (1024, True, 0)
        assert time.monotonic() - start < 10


class TestColorAndRank:
    def test_color(self, capsys):
        code, out, _ = run(["color", "--n", "2", "--q", "3", "--p", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["coloring"]["k"] == 3
        assert payload["certificate"]["valid_b"] is True

    def test_rank_forward(self, capsys):
        code, out, _ = run(["rank", "--n", "5", "--subset", "{1,3}"], capsys)
        assert code == 0
        assert json.loads(out)["rank"] == 7

    def test_rank_backward(self, capsys):
        code, out, _ = run(["rank", "--n", "3", "--rank", "5"], capsys)
        assert code == 0
        assert json.loads(out)["subset"] == "{1,3}"

    def test_rank_needs_one_direction(self, capsys):
        code, _, _ = run(["rank", "--n", "3"], capsys)
        assert code == 2


class TestExitCodes:
    """One test per documented exit code (0 and 4 are covered above)."""

    def test_violation_exits_1(self, capsys, monkeypatch):
        # a bound of 0 for every size makes any nonempty neighborhood a violation
        monkeypatch.setattr(
            _tables, "initial_segment_closed_sizes", lambda n, p: (0,) * ((1 << n) + 1)
        )
        code, out, _ = run(
            ["verify", "--theorem", "close", "--n", "4", "--p", "2",
             "--samples", "50", "--seed", "1"],
            capsys,
        )
        assert code == 1
        assert json.loads(out)["reports"][0]["violations"]

    def test_coset_integrity_failure_is_an_error_entry_and_exits_1(self, capsys, monkeypatch):
        real = bcoloring.validate_coloring
        monkeypatch.setattr(
            bcoloring, "validate_coloring",
            lambda g, c: dataclasses.replace(real(g, c), valid_b=False),
        )
        code, out, err = run(
            ["verify", "--theorem", "coset", "--n", "4", "--q", "3", "--p", "3"], capsys
        )
        assert code == 1 and err == ""
        (entry,) = json.loads(out)["results"]
        assert entry == {"n": 4, "q": 3, "p": 3,
                         "error": "coset coloring failed on a gated instance (n=4, q=3, p=3)"}

    def test_integrity_error_reaching_main_exits_1(self, capsys, monkeypatch):
        # a proven upper bound below the greedy colouring: the solver refuses
        monkeypatch.setattr(bounds, "upper_new", lambda n, p: 1)
        code, out, err = run(["solve", "--hypercube", "3", "--p", "2"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: fallback b-coloring uses")

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--n", "5", "--subset", "{9}"],
            ["table", "--n", "abc"],
            ["table", "--n", "1"],
            ["solve", "--hamming", "3", "--p", "1"],
            ["verify", "--theorem", "close", "--n", "5", "--p", "9",
             "--samples", "10", "--seed", "1"],
            ["verify", "--theorem", "open", "--n", "5", "--p", "0",
             "--samples", "10", "--seed", "1"],
            ["verify", "--theorem", "fixpoint", "--n", "4..3"],
            ["verify", "--theorem", "close", "--n", "4", "--p", "3..2", "--exhaustive"],
            ["rank", "--n", "-1", "--subset", "{}"],
            ["verify", "--theorem", "fixpoint", "--n", "-1"],
            ["table", "--n", "0"],
            ["table", "--n", "-1"],
            ["verify", "--theorem", "close", "--n", "6", "--p", "2",
             "--samples", "50", "--seed", "-5"],
            ["solve", "--hypercube", "3", "--p", "1", "--max-nodes", "-1"],
            ["solve", "--hypercube", "3", "--p", "1", "--max-seconds", "-5"],
            ["solve", "--hypercube", "3", "--p", "1", "--max-seconds", "nan"],
            ["verify", "--theorem", "closedform", "--n", "6", "--p", "3"],
        ],
    )
    def test_usage_error_exits_2(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--hypercube", "x", "--p", "1"],
             "error: --hypercube takes an integer N, got 'x'\n"),
            (["solve", "--hamming", "2,x", "--p", "1"],
             "error: --hamming takes N,Q integers, got '2,x'\n"),
            (["solve", "--hamming", "3", "--p", "1"],
             "error: --hamming takes N,Q integers, got '3'\n"),
        ],
        ids=["hypercube-word", "hamming-word", "hamming-count"],
    )
    def test_malformed_solve_instance_is_worded(self, capsys, argv, message):
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--theorem", "coset", "--n", "9", "--q", "3", "--p", "8"],
            ["verify", "--theorem", "simplicial", "--n", str(_tables.MAX_TABLE_BITS + 1)],
            ["solve", "--hypercube", "11", "--p", "1"],
        ],
    )
    def test_infeasible_exits_3(self, capsys, argv):
        code, _, err = run(argv, capsys)
        assert code == 3
        assert "capped" in err or "capacity" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--theorem", "coset", "--n", "9", "--q", "4", "--p", "8"],
            ["color", "--n", "9", "--q", "4", "--p", "2"],
            ["color", "--n", "9", "--q", "4"],
        ],
    )
    def test_adjacency_cap_fails_before_coloring(self, capsys, argv):
        built = bcoloring._digit_table.cache_info().currsize
        code, _, err = run(argv, capsys)
        assert code == 3 and "capped" in err
        assert bcoloring._digit_table.cache_info().currsize == built

    @pytest.mark.parametrize("theorem", ["close", "open", "section", "compression"])
    def test_sampling_cap_fails_before_building_tables(self, capsys, theorem):
        misses = _tables.balls.cache_info().misses
        started = time.monotonic()
        code, _, err = run(
            ["verify", "--theorem", theorem, "--n", "13", "--p", "2",
             "--samples", "1", "--seed", "1"],
            capsys,
        )
        assert code == 3 and "sampling capped" in err
        assert time.monotonic() - started < 1.0
        assert _tables.balls.cache_info().misses == misses

    def test_sampling_cap_fails_before_listing_cells(self, capsys):
        # n = 13..1500 would list over a million (n, p) cells; the first n
        # over the cap is refused before its radii are listed
        tracemalloc.start()
        try:
            code, out, err = run(
                ["verify", "--theorem", "close", "--n", "13..1500",
                 "--samples", "1", "--seed", "1"],
                capsys,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == "" and "sampling capped" in err
        assert peak < 2**20

    @pytest.mark.parametrize(
        "theorem,n,module,runner,message",
        [
            # n = 4 would run all 65 536 families before n = 5 is refused
            ("fixpoint", "4..5", "compression", "verify_fixpoint_classification",
             "exhaustive mode is capped"),
            # n = 13 would build about 129 MB of ball tables
            ("simplicial", "13..1500", "neighborhoods", "verify_initial_segment_closure",
             "MiB cap"),
            # over half a million cells, then the n = 13 ball tables
            ("closedform", "13..1500", "neighborhoods", "verify_closed_form", "MiB cap"),
        ],
    )
    def test_table_cap_fails_before_listing_cells(
        self, capsys, monkeypatch, theorem, n, module, runner, message
    ):
        calls = []
        monkeypatch.setattr(getattr(hyperb, module), runner, lambda *a: calls.append(a))
        tracemalloc.start()
        try:
            code, out, err = run(["verify", "--theorem", theorem, "--n", n], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and out == "" and message in err
        assert calls == [] and peak < 2**20

    def test_table_cap_wins_over_the_closed_form_gate(self, capsys):
        # (14, 3) is outside the gate too, but n = 14 is refused first
        code, out, err = run(["verify", "--theorem", "closedform", "--n", "14", "--p", "3"], capsys)
        assert code == 3 and out == "" and "MiB cap" in err

    @pytest.mark.parametrize(
        "theorem,samples",
        [("close", "-1"), ("open", "0"), ("section", "-3"), ("compression", "0")],
    )
    def test_sample_count_below_one_exits_2_before_building_tables(
        self, capsys, theorem, samples
    ):
        misses = _tables.balls.cache_info().misses
        code, out, err = run(
            ["verify", "--theorem", theorem, "--n", "12", "--p", "2",
             "--samples", samples, "--seed", "1"],
            capsys,
        )
        assert code == 2 and out == "" and "at least one sample" in err
        assert _tables.balls.cache_info().misses == misses

    @pytest.mark.parametrize("theorem", ["close", "open", "section", "compression"])
    def test_negative_seed_exits_2_before_building_tables(self, capsys, theorem):
        # random.Random(-5) seeds like Random(5): the report would differ
        # from the seed-5 one only in its "seed" field
        misses = _tables.balls.cache_info().misses
        code, out, err = run(
            ["verify", "--theorem", theorem, "--n", "12", "--p", "2",
             "--samples", "50", "--seed", "-5"],
            capsys,
        )
        assert code == 2 and out == "" and "seed must be non-negative" in err
        assert _tables.balls.cache_info().misses == misses

    @pytest.mark.parametrize(
        "argv",
        [
            ["--theorem", "close", "--n", "1", "--exhaustive"],
            ["--theorem", "open", "--n", "1", "--exhaustive"],
            ["--theorem", "closedform", "--n", "4"],
            ["--theorem", "compression", "--n", "1", "--exhaustive"],
            ["--theorem", "section", "--n", "0", "--exhaustive"],
            ["--theorem", "simplicial", "--n", "0"],
        ],
    )
    def test_sweep_with_nothing_to_check_exits_2_before_building_tables(
        self, capsys, argv
    ):
        # no radius (close, open, closedform, compression) or no coordinate
        # (section, simplicial) at this n: a report would pass vacuously
        tables = (_tables.balls, _tables.masks_in_order, _tables.section_tables)
        misses = [t.cache_info().misses for t in tables]
        code, out, err = run(["verify", *argv], capsys)
        assert code == 2 and out == "" and err.startswith("error: ")
        assert [t.cache_info().misses for t in tables] == misses

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--theorem", "fixpoint", "--n", "2", "--seed", "5", "--samples", "3"],
             "--theorem fixpoint takes no --samples, --seed"),
            (["--theorem", "simplicial", "--n", "2", "--exhaustive"],
             "--theorem simplicial takes no --exhaustive"),
            (["--theorem", "closedform", "--n", "5", "--seed", "0"],
             "--theorem closedform takes no --seed"),
            (["--theorem", "r3s", "--samples", "10"], "--theorem r3s takes no --samples"),
            (["--theorem", "coset", "--n", "2", "--q", "2", "--p", "1", "--seed", "1"],
             "--theorem coset takes no --seed"),
            (["--theorem", "close", "--n", "3", "--p", "1", "--exhaustive", "--seed", "3"],
             "--exhaustive takes neither --samples nor --seed"),
            (["--theorem", "section", "--n", "1..3", "--exhaustive", "--samples", "5"],
             "--exhaustive takes neither --samples nor --seed"),
            (["--theorem", "compression", "--n", "2", "--exhaustive", "--samples", "0",
              "--seed", "0"],
             "--exhaustive takes neither --samples nor --seed"),
        ],
    )
    def test_sampling_flag_that_would_be_dropped_exits_2_before_any_cell(
        self, capsys, monkeypatch, argv, message
    ):
        # a flag the run would not read must not pass unnoticed: the report
        # would name no seed, or check other families than asked for
        theorem = argv[1]
        calls = []
        _, radii, check = cli._THEOREMS[theorem]
        monkeypatch.setitem(
            cli._THEOREMS, theorem, (lambda *a: calls.append(a), radii, check)
        )
        code, out, err = run(["verify", *argv], capsys)
        assert code == 2 and out == "" and err == f"error: {message}\n"
        assert calls == []

    def test_samples_default_applies_in_sample_mode(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_SAMPLES", 7)
        code, out, _ = run(["verify", "--theorem", "section", "--n", "3", "--seed", "1"], capsys)
        assert code == 0
        (report,) = json.loads(out)["reports"]
        assert report["families_checked"] == 7 and report["seed"] == 1

    @pytest.mark.parametrize("theorem", ["simplicial", "closedform"])
    def test_ball_memory_guard_exits_3(self, capsys, theorem):
        size = _tables.balls.cache_info().currsize
        code, _, err = run(["verify", "--theorem", theorem, "--n", "14"], capsys)
        assert code == 3 and "MiB" in err
        assert _tables.balls.cache_info().currsize == size


class TestParserReuse:
    """main parses with one parser per process; every call must behave as
    a fresh process would."""

    JOBS = [
        ["solve", "--hypercube", "3", "--p", "2"],
        ["verify", "--theorem", "close", "--n", "6", "--p", "2", "--samples", "30", "--seed", "3"],
        ["table", "--n", "5..7", "--format", "json"],
        ["color", "--n", "3", "--q", "3", "--p", "1"],
        ["rank", "--n", "5", "--subset", "{2,4}"],
        ["solve", "--hamming", "2,3", "--p", "1"],
    ]

    def test_one_process_matches_separate_processes(self, tmp_path, capsys):
        env = dict(os.environ, PYTHONPATH=str(Path(hyperb.__file__).parents[1]))
        for i, argv in enumerate(self.JOBS):
            here, alone = tmp_path / f"here{i}", tmp_path / f"alone{i}"
            assert main([*argv, "--output", str(here)]) == 0
            subprocess.run(
                [sys.executable, "-m", "hyperb", *argv, "--output", str(alone)],
                env=env, check=True, capture_output=True,
            )
            assert here.read_bytes() == alone.read_bytes(), argv
        capsys.readouterr()

    def test_usage_errors_leave_the_parser_usable(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--hypercube", "3"])  # --p missing: argparse exits 2
        assert exc.value.code == 2
        assert main(["solve", "--p", "1"]) == 2  # neither instance given
        out = tmp_path / "out.json"
        assert main(["solve", "--hypercube", "3", "--p", "1", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["graph"] == {"kind": "hypercube", "n": 3, "q": 2, "p": 1}
        assert payload["exact"] is True
        capsys.readouterr()

    def test_build_parser_is_fresh_and_main_reuses_one(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()


class TestViolationWitnesses:
    def test_witness_payload_is_self_contained(self):
        # exercise the witness formatter on a fabricated record
        from hyperb.neighborhoods import VerifyReport, family_bits_to_strings

        rep = VerifyReport(
            check="close", n=3, p=2, mode="sample", families_checked=1, seed=4
        )
        rep.violations.append(
            {"family": family_bits_to_strings(0b101, 3), "n": 3, "p": 2,
             "closed_size": 9, "bound": 8}
        )
        payload = rep.as_json_dict()
        assert payload["violations"][0]["family"] == ["{}", "{2}"]
        assert payload["seed"] == 4
