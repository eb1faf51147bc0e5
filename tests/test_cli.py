"""CLI surface: subcommands, exit codes, restriction literals, determinism."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbrelim.catalog import gap_3x2
from nbrelim.cli import main
from nbrelim.games import parse_game


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert lines[-1]["record"] == "outcome"
        assert lines[-1]["kept"] == [["5"], ["5"]]
        assert lines[-1]["steps"] == 1

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

    def test_seeded_solve_deterministic(self, capsys):
        args = (
            "solve", "--game", "catalog:gap3x2", "--policy", "single",
            "--seed", "42",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2


class TestCheckStep:
    def test_legal_tilde(self, capsys):
        code, out, _ = run(
            capsys, "check-step", "--game", "catalog:gap3x2",
            "--from", "M,B;L,R", "--to", "M;L,R", "--relation", "tilde",
        )
        assert code == 0
        assert out.startswith("legal:")
        assert "NBR" in out

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
        # removing a whole side is expressible and vacuously legal under tilde
        code, out, _ = run(
            capsys, "check-step", "--game", "catalog:gap3x2",
            "--from", "M,B;L,R", "--to", "M,B;",
        )
        assert code in (0, 1)


class TestVerify:
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

    def test_needs_some_game(self, capsys):
        code, _, err = run(capsys, "verify", "nash")
        assert code == 2

    def test_deterministic_output(self, capsys):
        args = (
            "verify", "order-independence", "--random", "3", "--max-size", "3",
            "--orders", "4", "--seed", "5", "--format", "records",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestNumericFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--game", "catalog:gap3x2", "--resolution", "0"),
            ("verify", "nash", "--game", "catalog:gap3x2", "--random", "-1"),
            ("verify", "nash", "--random", "2", "--max-size", "0"),
            ("verify", "nash", "--random", "2", "--payoff-bound", "-1"),
            ("verify", "order-independence", "--random", "1", "--orders", "0"),
        ],
        ids=["resolution", "random", "max-size", "payoff-bound", "orders"],
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
    if command == "verify":
        argv.append(draw(st.sampled_from(
            ("nash", "order-independence", "fast-dominance", "equivalence",
             "oracle-agreement", "kind-monotonicity", "bogus")
        )))
    for _ in range(draw(st.integers(0 if command == "verify" else 1, 2))):
        argv += ["--game", draw(st.sampled_from(sources))]
    if command == "check-step":
        for flag in ("--from", "--to"):
            if draw(st.booleans()) or draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(LITERALS))]
    flags = list(CHOICE_FLAGS) + ["--resolution"]
    if command == "verify":
        flags += list(INT_FLAGS) + ["--players"]
    else:
        flags.append("--seed")
    for flag in draw(st.lists(st.sampled_from(flags), max_size=5, unique=True)):
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
