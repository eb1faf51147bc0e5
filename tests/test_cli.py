"""CLI surface: subcommands, exit codes, restriction literals, determinism."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbrelim import verification
from nbrelim.catalog import gap_3x2
from nbrelim.cli import _CAMPAIGNS, _POLICIES, main
from nbrelim.games import parse_game, render_game


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Seeded `solve` output on the gap game, one run per relation: the argv
# after --relation, then the text and the records output.
_GOLDEN = {
    "tilde": (
        ("--policy", "fast", "--beliefs", "pure"),
        "game 12d7fafe1770 kind=~ beliefs=pure policy=fast seed=0\n"
        "step 1 kind=~ removed={p1:[M,B],p2:[]} -> kept={p1:[T],p2:[L,R]}\n"
        "outcome kept={p1:[T],p2:[L,R]} steps=1 maximal=yes\n"
        "cert step=1 p1 M NBR(exhaustive)\n"
        "cert step=1 p1 B NBR(exhaustive)\n",
        '{"record":"step","index":1,"kind":"tilde","removed":[["M","B"],[]],'
        '"kept":[["T"],["L","R"]]}\n'
        '{"record":"outcome","game":"12d7fafe1770","kind":"tilde","beliefs":"pure",'
        '"policy":"fast","seed":0,"steps":1,"kept":[["T"],["L","R"]],"maximal":true}\n',
    ),
    "arrow": (
        ("--policy", "single", "--seed", "2", "--beliefs", "correlated"),
        "game 12d7fafe1770 kind=-> beliefs=correlated policy=single seed=2\n"
        "step 1 kind=-> removed={p1:[M],p2:[]} -> kept={p1:[T,B],p2:[L,R]}\n"
        "step 2 kind=-> removed={p1:[B],p2:[]} -> kept={p1:[T],p2:[L,R]}\n"
        "outcome kept={p1:[T],p2:[L,R]} steps=2 maximal=yes\n"
        "cert step=1 p1 M NBR(lp)\n"
        "cert step=2 p1 B NBR(lp)\n",
        '{"record":"step","index":1,"kind":"arrow","removed":[["M"],[]],'
        '"kept":[["T","B"],["L","R"]]}\n'
        '{"record":"step","index":2,"kind":"arrow","removed":[["B"],[]],'
        '"kept":[["T"],["L","R"]]}\n'
        '{"record":"outcome","game":"12d7fafe1770","kind":"arrow","beliefs":"correlated",'
        '"policy":"single","seed":2,"steps":2,"kept":[["T"],["L","R"]],"maximal":true}\n',
    ),
    "darrow": (
        ("--policy", "random", "--seed", "3", "--beliefs", "mixed"),
        "game 12d7fafe1770 kind==> beliefs=mixed policy=random seed=3\n"
        "step 1 kind==> removed={p1:[B],p2:[]} -> kept={p1:[T,M],p2:[L,R]}\n"
        "step 2 kind==> removed={p1:[M],p2:[]} -> kept={p1:[T],p2:[L,R]}\n"
        "outcome kept={p1:[T],p2:[L,R]} steps=2 maximal=yes\n"
        "cert step=1 p1 B NBR(lp)\n"
        "cert step=2 p1 M NBR(lp)\n",
        '{"record":"step","index":1,"kind":"darrow","removed":[["B"],[]],'
        '"kept":[["T","M"],["L","R"]]}\n'
        '{"record":"step","index":2,"kind":"darrow","removed":[["M"],[]],'
        '"kept":[["T"],["L","R"]]}\n'
        '{"record":"outcome","game":"12d7fafe1770","kind":"darrow","beliefs":"mixed",'
        '"policy":"random","seed":3,"steps":2,"kept":[["T"],["L","R"]],"maximal":true}\n',
    ),
}


class TestSolve:
    def test_gap_game_fast(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--game", "catalog:gap3x2",
            "--beliefs", "pure", "--relation", "tilde", "--policy", "fast",
        )
        assert code == 0
        assert "outcome kept={p1:[T],p2:[L,R]}" in out

    def test_fast_darrow_unsupported(self, capsys):
        code, _, err = run(
            capsys, "solve", "--game", "catalog:gap3x2",
            "--relation", "darrow", "--policy", "fast",
        )
        assert code == 3
        assert "unsupported" in err

    def test_darrow_random_policy_works(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--game", "catalog:gap3x2",
            "--relation", "darrow", "--policy", "random",
        )
        assert code == 0
        assert "outcome" in out

    def test_missing_game_file(self, capsys):
        code, _, err = run(capsys, "solve", "--game", "/nonexistent.game")
        assert code == 2
        assert "error" in err

    def test_unknown_catalog_name(self, capsys):
        code, _, err = run(capsys, "solve", "--game", "catalog:nope")
        assert code == 2

    def test_game_file_source(self, capsys, tmp_path):
        from nbrelim.catalog import naturals_truncated
        from nbrelim.games import render_game

        path = tmp_path / "n5.game"
        path.write_text(render_game(naturals_truncated(5)), encoding="utf-8")
        code, out, _ = run(capsys, "solve", "--game", str(path))
        assert code == 0
        assert "outcome kept={p1:[5],p2:[5]}" in out

    def test_records_format(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--game", "catalog:naturals5", "--format", "records",
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        below = [str(k) for k in range(5)]
        assert lines[0] == {
            "record": "step", "index": 1, "kind": "tilde",
            "removed": [below, below], "kept": [["5"], ["5"]],
        }
        assert list(lines[0]) == ["record", "index", "kind", "removed", "kept"]
        assert lines[-1]["record"] == "outcome"
        assert lines[-1]["kept"] == [["5"], ["5"]]
        assert lines[-1]["steps"] == 1
        assert len(lines) == 2

    @pytest.mark.parametrize("relation", sorted(_GOLDEN))
    def test_seeded_output_bytes(self, capsys, relation):
        # one seeded solve per relation, text and records, byte for byte
        argv, text, records = _GOLDEN[relation]
        solve = ("solve", "--game", "catalog:gap3x2", "--relation", relation, *argv)
        assert run(capsys, *solve) == (0, text, "")
        assert run(capsys, *solve, "--format", "records") == (0, records, "")

    def test_price_grid_solve(self, capsys):
        code, out, _ = run(capsys, "solve", "--game", "catalog:bertrand100")
        assert code == 0
        assert "outcome kept={p1:[1],p2:[1]} steps=50 maximal=yes" in out

    def test_numeral_past_the_digit_limit_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "huge.game"
        path.write_text(
            "players 1\nstrategies 1: a\npayoff a : " + "7" * 4400 + "\n", encoding="utf-8"
        )
        code, out, err = run(capsys, "solve", "--game", str(path))
        assert code == 2
        assert err.startswith("error: line 3: numeral of 4400 characters")
        assert len(err.splitlines()) == 1

    def test_non_ascii_digits_are_an_input_error(self, capsys, tmp_path):
        # '²' passes str.isdigit() and int() refuses it; ASCII digits only
        path = tmp_path / "super.game"
        path.write_text("players ²\nstrategies 1: a\npayoff a : 1\n", encoding="utf-8")
        code, out, err = run(capsys, "solve", "--game", str(path))
        assert code == 2
        assert err.startswith("error: line 1: expected 'players <n>'")
        assert len(err.splitlines()) == 1

    def test_a_line_separator_in_a_comment_ends_no_line(self, capsys, tmp_path):
        # `Path.read_text` leaves U+2028 in place; only `\n` ends a line
        text = render_game(gap_3x2())
        outs = []
        for name, body in [("plain", text), ("sep", text.replace("\n", "\n# a\u2028b\n", 1))]:
            path = tmp_path / f"{name}.game"
            path.write_text(body, encoding="utf-8")
            code, out, err = run(capsys, "solve", "--game", str(path))
            assert (code, err) == (0, "")
            outs.append(out.replace(name, "?"))
        assert outs[0] == outs[1]

    def test_seeded_solve_deterministic(self, capsys):
        args = (
            "solve", "--game", "catalog:gap3x2", "--policy", "single",
            "--seed", "42",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_calls_leave_no_cyclic_garbage(self, capsys):
        # The argparse tree is a web of reference cycles; built once per
        # process, a call leaves nothing that only the cyclic collector frees.
        args = ("solve", "--game", "catalog:gap3x2")
        assert run(capsys, *args)[0] == 0
        gc.collect()
        gc.disable()
        try:
            for _ in range(2):
                assert main(list(args)) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()
        capsys.readouterr()


class TestCheckStep:
    def test_legal_tilde(self, capsys):
        code, out, _ = run(
            capsys, "check-step", "--game", "catalog:gap3x2",
            "--from", "M,B;L,R", "--to", "M;L,R", "--relation", "tilde",
        )
        assert code == 0
        # the removed sets as every trace line writes them
        assert out == (
            "legal: removed={p1:[B],p2:[]} kind=~ beliefs=pure\n"
            "cert p1 B NBR(exhaustive)\n"
        )

    def test_illegal_arrow_names_the_witness(self, capsys):
        code, out, _ = run(
            capsys, "check-step", "--game", "catalog:gap3x2",
            "--from", "M,B;L,R", "--to", "M;L,R", "--relation", "arrow",
        )
        assert code == 1
        assert "illegal" in out
        assert "witness=pure(L)" in out

    def test_not_nested_is_malformed(self, capsys):
        code, _, err = run(
            capsys, "check-step", "--game", "catalog:gap3x2",
            "--from", "M;L,R", "--to", "T;L,R",
        )
        assert code == 2

    def test_bad_literal(self, capsys):
        code, _, err = run(
            capsys, "check-step", "--game", "catalog:gap3x2",
            "--from", "M,B", "--to", "M",
        )
        assert code == 2

    def test_empty_component_literal(self, capsys):
        # removing a whole side is expressible; L is still a best reply to M
        code, out, _ = run(
            capsys, "check-step", "--game", "catalog:gap3x2",
            "--from", "M,B;L,R", "--to", "M,B;",
        )
        assert code == 1
        assert out == "illegal: player 2 strategy L (witness) witness=pure(M)\n"

    def test_empty_opponent_component_is_vacuous(self, capsys):
        # facing no opponent strategy, T is never-best to an empty belief set
        code, out, _ = run(
            capsys, "check-step", "--game", "catalog:gap3x2", "--from", "T;", "--to", ";",
        )
        assert code == 0
        assert "cert p1 T NBR(vacuous)\n" in out

    @pytest.mark.parametrize("flag", [["--format", "records"], ["--seed", "9"]])
    def test_run_flags_are_refused(self, capsys, flag):
        # check-step draws nothing and prints text only
        with pytest.raises(SystemExit) as exc:
            main(["check-step", "--game", "catalog:gap3x2",
                  "--from", "M,B;L,R", "--to", "M;L,R", *flag])
        assert exc.value.code == 2

    @pytest.mark.parametrize("resolution, verdict", [
        ("2", "(inconclusive)"), ("3", "(witness) witness=prod([H:1/3,T:2/3];[m:1])"),
    ])
    def test_pinched_window_at_two_resolutions(self, capsys, tmp_path, resolution, verdict):
        # X is best only against the 1/3-2/3 mix of H and T
        from test_reductions import TestFrontier

        path = tmp_path / "pinched.game"
        game = TestFrontier.pinched_window_with_a_dominated_strategy()
        path.write_text(render_game(game), encoding="utf-8")
        code, out, _ = run(
            capsys, "check-step", "--game", str(path), "--from", "X,Y,Z,W;H,T;m",
            "--to", "Y,Z,W;H,T;m", "--beliefs", "mixed", "--resolution", resolution,
        )
        assert code == 1
        assert out == f"illegal: player 1 strategy X {verdict}\n"


class TestVerify:
    def test_a_fail_prints_each_counterexample_line(self, capsys, monkeypatch):
        report = verification.TheoremReport(
            "nash_preservation_i", "gap3x2", 0, "fail", "an equilibrium was lost",
            ("step 1 removed=T\nkept=M,B",),
        )
        monkeypatch.setattr(
            verification, "check_nash_preservation", lambda *args, **kwargs: [report]
        )
        argv = ["verify", "nash", "--game", "catalog:gap3x2"]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert out == (
            "nash_preservation_i gap3x2 seed=0: fail (an equilibrium was lost)\n"
            "  | step 1 removed=T\n"
            "  | kept=M,B\n"
        )
        code, out, _ = run(capsys, *argv, "--format", "records")
        assert code == 1
        assert json.loads(out)["counterexample"] == ["step 1 removed=T\nkept=M,B"]

    def test_nash_catalog_game(self, capsys):
        code, out, _ = run(
            capsys, "verify", "nash", "--game", "catalog:naturals5",
            "--orders", "4",
        )
        assert code == 0
        assert "nash_preservation_i" in out and "pass" in out

    def test_order_independence_random_games(self, capsys):
        code, out, _ = run(
            capsys, "verify", "order-independence", "--random", "5",
            "--players", "2", "--max-size", "3", "--orders", "6",
        )
        assert code == 0
        assert out.count("order_independence") == 5

    def test_equivalence_mixed_sources(self, capsys):
        code, out, _ = run(
            capsys, "verify", "equivalence", "--game", "catalog:gap3x2",
            "--random", "3", "--max-size", "3",
        )
        assert code == 0

    def test_orders_reach_equivalence(self, capsys, monkeypatch):
        seen = []

        def spy(game, belief_kind, **kwargs):
            seen.append(kwargs["num_orders"])
            return []

        monkeypatch.setattr(verification, "check_equivalence", spy)
        code, _, _ = run(
            capsys, "verify", "equivalence", "--game", "catalog:gap3x2",
            "--orders", "2",
        )
        assert code == 0
        assert seen == [2]

    def test_records_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "kind-monotonicity", "--game", "catalog:gap3x2",
            "--format", "records",
        )
        assert code == 0
        rec = json.loads(out.splitlines()[0])
        assert list(rec) == [
            "theorem", "instance", "seed", "verdict", "details", "counterexample",
        ]
        assert rec["verdict"] == "pass"

    def test_an_oversized_cross_check_grid_exits_unknown(self, capsys):
        # About 1.7e9 grid points: answered at once, not scanned.
        code, out, _ = run(
            capsys, "verify", "oracle-agreement", "--game", "catalog:bertrand100"
        )
        assert code == 4
        assert "unknown (player 1's denominator-6 grid has 1705727895 points" in out

    def test_needs_some_game(self, capsys):
        code, _, err = run(capsys, "verify", "nash")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("order-independence", "--relation", "darrow"),
            ("nash", "--beliefs", "correlated"),
            ("oracle-agreement",
             "--orders", "3", "--beliefs", "mixed", "--relation", "arrow"),
        ],
        ids=["order-independence", "nash", "oracle-agreement"],
    )
    def test_a_flag_the_campaign_does_not_read_is_refused(self, capsys, argv):
        # a campaign that ignored the flag would check something else and pass
        with pytest.raises(SystemExit) as exc:
            main(["verify", argv[0], "--game", "catalog:gap3x2", *argv[1:]])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        args = (
            "verify", "order-independence", "--random", "3", "--max-size", "3",
            "--orders", "4", "--seed", "5", "--format", "records",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestConsoleScript:
    """The module entry point, as the installed `nbrelim` script runs it."""

    def _run(self, *argv):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        return subprocess.run(
            [sys.executable, "-m", "nbrelim.cli", *argv],
            env=env, capture_output=True, text=True, encoding="utf-8",
        )

    def test_catalog_list(self):
        result = self._run("catalog", "list")
        assert result.returncode == 0
        assert result.stdout.startswith("bertrand100: ")

    def test_unsupported_exit_code(self):
        result = self._run(
            "solve", "--game", "catalog:gap3x2", "--relation", "darrow",
            "--policy", "fast",
        )
        assert result.returncode == 3
        assert result.stderr.startswith("unsupported: ")

    def test_policy_choices(self):
        assert list(_POLICIES) == ["fast", "random", "single"]


class TestNumericFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--game", "catalog:gap3x2", "--resolution", "0"),
            ("verify", "nash", "--game", "catalog:gap3x2", "--random", "-1"),
            ("verify", "nash", "--random", "2", "--max-size", "0"),
            ("verify", "nash", "--random", "2", "--payoff-bound", "-1"),
            ("verify", "order-independence", "--random", "1", "--orders", "0"),
            ("verify", "nash", "--random", "1", "--players", "0"),
        ],
        ids=["resolution", "random", "max-size", "payoff-bound", "orders", "players"],
    )
    def test_out_of_range_value_is_an_input_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {argv[-2]} must be at least")
        assert len(err.splitlines()) == 1


class TestTraceRevalidation:
    def test_emitted_steps_revalidate_via_check_step(self, capsys):
        # rebuild each emitted step as a check-step invocation using labels
        from nbrelim.beliefs import BeliefKind
        from nbrelim.catalog import gap_3x2
        from nbrelim.reductions import Policy, ReductionKind, iterate

        game = gap_3x2()
        trace = iterate(
            game, ReductionKind.TILDE, BeliefKind.PURE, Policy.SINGLE_RANDOM, seed=2
        )
        assert len(trace.steps) >= 2

        def literal(restriction):
            return ";".join(
                ",".join(game.label_of(i, s) for s in ks)
                for i, ks in enumerate(restriction.kept)
            )

        for step in trace.steps:
            code, out, _ = run(
                capsys, "check-step", "--game", "catalog:gap3x2",
                "--from", literal(step.source), "--to", literal(step.target),
                "--relation", "tilde",
            )
            assert code == 0, out


class TestCatalog:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        names = [line.split(":")[0] for line in out.splitlines()]
        assert names == sorted(names)
        assert "bertrand100" in names

    def test_emit_parses_back(self, capsys):
        code, out, _ = run(capsys, "catalog", "emit", "naturals5")
        assert code == 0
        game = parse_game(out)
        assert game.sizes == (6, 6)
        assert out.startswith("#")  # deviation note rides along as comments

    def test_emit_unknown(self, capsys):
        code, _, err = run(capsys, "catalog", "emit", "nope")
        assert code == 2


@pytest.fixture(scope="module")
def fuzz_sources(tmp_path_factory):
    """Game sources for the fuzz test: catalog names, small valid files,
    malformed files and a path that does not exist."""
    from nbrelim.catalog import random_game
    from nbrelim.games import render_game

    root = tmp_path_factory.mktemp("fuzz")
    good = render_game(gap_3x2())
    files = {
        "gap.game": good,
        "three.game": render_game(random_game(3, (2, 2, 1), 3, seed=4)),
        "float.game": good.replace("2 0", "2.0 0"),
        "short.game": good.replace("payoff B R : 0 0\n", ""),
        "huge.game": good.replace("payoff M R : 1 0", "payoff M R : " + "9" * 4400 + " 0"),
        "empty.game": "",
        "players.game": "players 99999999999999999999\n",  # past `sys.maxsize`
    }
    sources = ["catalog:gap3x2", "catalog:nope", str(root / "missing.game"), str(root)]
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
        sources.append(str(root / name))
    (root / "binary.game").write_bytes(b"\xff\xfeplayers 2\n")
    sources.append(str(root / "binary.game"))
    return sources


INT_FLAGS = ("--seed", "--random", "--max-size", "--payoff-bound", "--orders")
CHOICE_FLAGS = {
    "--beliefs": ("pure", "mixed", "correlated", "bogus"),
    "--relation": ("tilde", "arrow", "darrow", "bogus"),
    "--policy": ("fast", "random", "single", "bogus"),
    "--format": ("text", "records", "bogus"),
}
LITERALS = ("T,M,B;L,R", "M,B;L,R", "M;L,R", "T;L", "M,B;", "X;L", "T", ";;", "")


@st.composite
def cli_argv(draw, sources):
    command = draw(st.sampled_from(("solve", "check-step", "verify")))
    argv = [command]
    flags = list(CHOICE_FLAGS) + ["--resolution", "--seed"]
    foreign = []
    if command == "verify":
        campaign = draw(st.sampled_from(sorted(_CAMPAIGNS) + ["bogus"]))
        argv.append(campaign)
        if campaign in _CAMPAIGNS:
            # The flags the campaign reads, and sometimes one it refuses.
            _, positional, orders = _CAMPAIGNS[campaign]
            reads = ([f"--{positional}"] if positional else []) + ["--orders"] * orders
            flags = ["--seed", "--format", "--resolution", "--random", "--max-size",
                     "--payoff-bound", "--players", *reads]
            if draw(st.integers(0, 3)) == 3:
                foreign = [draw(st.sampled_from(
                    [f for f in (*CHOICE_FLAGS, "--orders") if f not in flags]
                ))]
        else:
            flags += list(INT_FLAGS) + ["--players"]
    for _ in range(draw(st.integers(0 if command == "verify" else 1, 2))):
        argv += ["--game", draw(st.sampled_from(sources))]
    if command == "check-step":
        for flag in ("--from", "--to"):
            if draw(st.booleans()) or draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(LITERALS))]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=5, unique=True)) + foreign:
        if flag in CHOICE_FLAGS:
            value = draw(st.sampled_from(CHOICE_FLAGS[flag]))
        elif flag == "--resolution":
            value = draw(st.integers(-3, 4))
        elif flag == "--players":
            # More players would make the mixed-belief campaigns slow; the
            # 3-player file covers that shape.
            value = draw(st.integers(-3, 2))
        else:
            value = draw(st.integers(-3, 5))
        argv += [flag, str(value)]
    return argv


class TestFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_exit_code_is_documented(self, fuzz_sources, data):
        argv = data.draw(cli_argv(fuzz_sources))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        assert code in range(5), (argv, code, err.getvalue())
