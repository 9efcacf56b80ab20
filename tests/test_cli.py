import gc
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from deflog.analysis import gen_theory
from deflog.cli import main
from deflog.engine import ConclusionSet
from deflog.parser import print_theory

from conftest import GOLDEN

EXAMPLE1 = str(GOLDEN / "example1.dfl")
EXAMPLE2 = str(GOLDEN / "example2.dfl")
EXAMPLE3 = str(GOLDEN / "example3.dfl")
SRC = str(Path(__file__).parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(python: str, *argv: str, **env: str) -> bytes:
    """Stdout of `python -m deflog.cli *argv` in a child process with `env`
    added to this one's environment; the CLI must exit 0."""
    result = subprocess.run([python, "-m", "deflog.cli", *argv], capture_output=True,
                            env={**os.environ, "PYTHONPATH": SRC, **env}, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


def run_on_python310(*argv: str) -> str:
    """Stdout of the CLI run under `python3.10`; skips when there is none."""
    python = shutil.which("python3.10")
    # A pyenv shim runs only selected versions; this selects 3.10 there
    # and is ignored by any other python3.10.
    env = {"PYENV_VERSION": "3.10"}
    if python is None or subprocess.run([python, "--version"], env={**os.environ, **env},
                                        capture_output=True, timeout=60).returncode != 0:
        pytest.skip("no python3.10 on PATH")
    return run_process(python, *argv, **env).decode()


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    """Every process pays for its imports: a bare `deflog conclusions` run
    must not pull in `dataclasses` and the `inspect` it imports."""
    code = ("import sys; bare = set(sys.modules); import deflog.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - bare)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


@pytest.mark.parametrize("argv, loaded", [
    (["conclusions", EXAMPLE1, "--ground"], ["deflog.engine"]),
    (["transform", EXAMPLE3, "--stage", "normal"], ["deflog.transform"]),
])
def test_a_subcommand_imports_only_what_it_calls(argv, loaded):
    code = ("import sys; from deflog.cli import main; main(sys.argv[1:]); "
            "print([m for m in ('deflog.analysis', 'deflog.engine', 'deflog.transform', "
            "'graphlib') if m in sys.modules], file=sys.stderr)")
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stderr == f"{loaded}\n"


@pytest.mark.parametrize("argv, stdin, code", [
    (["conclusions", EXAMPLE1, "--ground"], b"", 0),
    (["check", EXAMPLE1, "--what", "normal"], b"", 1),
    (["conclusions", "-"], b"r: p =>", 2),
    (["conclusions", EXAMPLE1], b"", 3),
], ids=["exit-0", "exit-1", "exit-2", "exit-3"])
def test_the_process_entry_point_runs_without_cyclic_collections(argv, stdin, code):
    """`run` keeps the collector off and freezes the heap before the
    interpreter's last collection, and passes `main`'s exit code on."""
    probe = ("import atexit, gc, sys; atexit.register(lambda: print("
             "gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)); "
             "from deflog.cli import run; run()")
    result = subprocess.run([sys.executable, "-c", probe, *argv], input=stdin,
                            capture_output=True, env={**os.environ, "PYTHONPATH": SRC},
                            timeout=60)
    assert result.returncode == code, result.stderr
    assert result.stderr.endswith(b"False True\n"), result.stderr
    if code == 0:
        assert result.stdout == (GOLDEN / "example1.conclusions.txt").read_bytes()


def test_main_leaves_the_collector_as_it_found_it(capsys):
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    assert run(capsys, "conclusions", EXAMPLE1, "--ground")[0] == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)


def test_a_run_leaves_the_same_cyclic_garbage_whatever_the_input_size(tmp_path):
    """What `run` never collects is bounded: `main` leaves as many
    unreachable cyclic objects on a 2,000-rule input as on a 10-rule one."""
    code = ("import gc, sys; gc.disable(); from deflog.cli import main; gc.collect(); "
            "main(sys.argv[1:]); print(gc.collect(), file=sys.stderr)")

    def garbage(*argv: str) -> tuple[int, str]:
        result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                                text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
        assert result.returncode == 0, result.stderr
        return int(result.stderr), result.stdout

    counts = []
    for rules in (10, 2000):
        source = tmp_path / f"{rules}.dfl"
        source.write_text(print_theory(gen_theory(
            rules, num_atoms=max(6, rules // 2), num_rules=rules, num_facts=max(2, rules // 50),
            defeater_fraction=0.1, strict_fraction=0.3)))
        compiled = tmp_path / f"{rules}.pipeline.dfl"
        pipelined, output = garbage("transform", str(source), "--stage", "pipeline")
        compiled.write_text(output)
        counts.append((garbage("conclusions", str(source))[0], pipelined,
                       garbage("conclusions", str(compiled), "--mode", "reduced",
                               "--allow-generated")[0]))
    assert counts[0] == counts[1]


def test_the_installed_command_uses_the_process_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(SRC).parent / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"deflog": "deflog.cli:run"}


class TestConclusions:
    def test_example1_ground(self, capsys):
        code, out, _ = run(capsys, "conclusions", EXAMPLE1, "--ground")
        assert code == 0
        assert "+d mammal(platypus)" in out.splitlines()
        expected = (GOLDEN / "example1.conclusions.txt").read_text()
        assert out == expected

    def test_example1_in_a_process_with_unbuffered_stdout(self):
        stdout = run_process(sys.executable, "conclusions", EXAMPLE1, "--ground",
                             PYTHONUNBUFFERED="1")
        assert stdout == (GOLDEN / "example1.conclusions.txt").read_bytes()

    def test_empty_theory_prints_nothing(self, capsys, tmp_path):
        empty = tmp_path / "empty.dfl"
        empty.write_text("")
        assert run(capsys, "conclusions", str(empty)) == (0, "", "")
        assert run_process(sys.executable, "conclusions", str(empty), PYTHONUNBUFFERED="1") == b""

    def test_example1_on_the_oldest_supported_python(self):
        """`requires-python` is >=3.10: the CLI must run on 3.10 itself."""
        stdout = run_on_python310("conclusions", EXAMPLE1, "--ground")
        assert stdout == (GOLDEN / "example1.conclusions.txt").read_text()

    def test_two_variable_superiority_on_the_oldest_supported_python(self, tmp_path):
        """`ground` pairs instances through an index of the shared
        variables' values; 3.10 must give the same listing."""
        schema = tmp_path / "schema.dfl"
        schema.write_text("p(a). p(b). p(c). r1: p(X), p(Y) => q(X,Y).\n"
                          "r2: p(X), p(Z) => ~q(X,Z). r3: p(Y) => ~q(Y,Y).\n"
                          "r1 > r2. r3 > r1.\n")
        stdout = run_on_python310("conclusions", str(schema), "--ground")
        assert stdout == run_process(sys.executable, "conclusions", str(schema),
                                     "--ground").decode()
        lines = stdout.splitlines()
        assert "+d q(a,b)" in lines and "+d ~q(a,a)" in lines

    def test_empty_theory_with_declared_atom(self, capsys, tmp_path):
        empty = tmp_path / "empty.dfl"
        empty.write_text("")
        code, out, _ = run(capsys, "conclusions", str(empty), "--atoms", "p")
        assert code == 0
        assert out.splitlines() == ["-D p", "-D ~p", "-d p", "-d ~p"]

    def test_declared_atom_with_arguments(self, capsys, tmp_path):
        f = tmp_path / "schema.dfl"
        f.write_text("f(c). r1: f(X) => g(X).\n")
        code, out, _ = run(capsys, "conclusions", str(f), "--ground", "--atoms", "g(c)")
        assert code == 0
        assert "+d g(c)" in out.splitlines()
        assert "-d g(c)" not in out.splitlines()

    def test_declared_atoms_split_outside_parentheses(self, capsys, tmp_path):
        empty = tmp_path / "empty.dfl"
        empty.write_text("")
        code, out, _ = run(capsys, "conclusions", str(empty), "--atoms", "h(c,d),p")
        assert code == 0
        assert out.splitlines() == ["-D h(c,d)", "-D p", "-D ~h(c,d)", "-D ~p",
                                    "-d h(c,d)", "-d p", "-d ~h(c,d)", "-d ~p"]

    def test_declared_atoms_are_read_as_dfl(self, capsys, tmp_path):
        f = tmp_path / "d.dfl"
        f.write_text("r: => p.\n")
        assert run(capsys, "conclusions", str(f), "--atoms", " p") == \
            run(capsys, "conclusions", str(f), "--atoms", "p")

    def test_generated_symbols_exit_2(self, capsys, tmp_path):
        f = tmp_path / "gen.dfl"
        f.write_text("r: => $p(a).\n")
        code, _, err = run(capsys, "conclusions", str(f))
        assert code == 2
        assert "reserved" in err

    def test_malformed_generated_symbol_exit_2(self, capsys, tmp_path):
        f = tmp_path / "gen.dfl"
        f.write_text("r: => $p($p($p($p(a)))).\n")
        code, _, err = run(capsys, "conclusions", str(f), "--allow-generated")
        assert code == 2
        assert "1:7: malformed generated symbol" in err

    def test_schema_without_ground_flag_exit_3(self, capsys):
        code, _, err = run(capsys, "conclusions", EXAMPLE1)
        assert code == 3
        assert "ground" in err

    def test_reduced_mode_precondition_exit_3(self, capsys):
        code, _, err = run(capsys, "conclusions", EXAMPLE3, "--mode", "reduced")
        assert code == 3
        assert "reduced mode precondition" in err

    @pytest.mark.parametrize("argv", [
        [EXAMPLE1, "--ground"],
        ["{reduced}", "--mode", "reduced", "--atoms", "zz,a"],
    ])
    def test_no_solver_is_alive_while_the_listing_is_built(self, capsys, monkeypatch,
                                                            tmp_path, solvers, argv):
        """A theory keeps its solve, so the command drops the theory before
        it builds the listing, where its memory peaks."""
        reduced = tmp_path / "reduced.dfl"
        reduced.write_text("r1: a => p. r2: => ~p. r3: p -> q.\n")
        argv = [arg.format(reduced=reduced) for arg in argv]
        alive = []
        lines = ConclusionSet.lines

        def tracked_lines(self):
            alive.append(sum(ref() is not None for ref in solvers))
            return lines(self)

        monkeypatch.setattr(ConclusionSet, "lines", tracked_lines)
        code, out, _ = run(capsys, "conclusions", *argv)
        assert code == 0 and out
        assert len(solvers) == 1 and alive == [0]

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("r: => p.\n"))
        code, out, _ = run(capsys, "conclusions", "-")
        assert code == 0
        assert "+d p" in out.splitlines()


class TestTransform:
    def test_normal_example2_round_trips(self, capsys):
        from deflog import normal, parse

        code, out, _ = run(capsys, "transform", EXAMPLE2, "--stage", "normal")
        assert code == 0
        source = parse((GOLDEN / "example2.dfl").read_text())
        assert parse(out, allow_generated=True) == normal(source)[0]

    def test_elim_sup_example3_matches_golden(self, capsys):
        from deflog import parse

        code, out, _ = run(capsys, "transform", EXAMPLE3, "--stage", "elim-sup")
        assert code == 0
        golden = parse((GOLDEN / "example3.elim_sup.dfl").read_text(), allow_generated=True)
        assert parse(out, allow_generated=True) == golden

    def test_report_appends_comments(self, capsys):
        code, out, _ = run(capsys, "transform", EXAMPLE2, "--stage", "normal", "--report")
        assert code == 0
        assert "% growth-factor:" in out
        # the report lines keep the stream parseable
        from deflog import parse

        parse(out, allow_generated=True)

    @pytest.mark.parametrize("source, stage, golden", [
        (EXAMPLE2, "normal", "example2.normal.dfl"),
        (EXAMPLE3, "elim-sup", "example3.elim_sup.dfl"),
    ])
    def test_on_the_oldest_supported_python(self, source, stage, golden):
        stdout = run_on_python310("transform", source, "--stage", stage)
        assert stdout == (GOLDEN / golden).read_text()

    def test_precondition_failure_exit_3(self, capsys, tmp_path):
        f = tmp_path / "fact.dfl"
        f.write_text("p.\nr: => q.\n")
        code, _, err = run(capsys, "transform", str(f), "--stage", "elim-sup")
        assert code == 3
        assert "normal form" in err


class TestCheck:
    def test_cyclic_superiority_reported(self, capsys, tmp_path):
        f = tmp_path / "dd.dfl"
        f.write_text("r1: => p. r2: => ~p. r1 > r2. r2 > r1.\n")
        code, out, _ = run(capsys, "check", str(f), "--what", "well-formed")
        assert code == 1
        assert "cyclic superiority" in out

    def test_well_formed_ok(self, capsys):
        code, out, _ = run(capsys, "check", EXAMPLE3, "--what", "well-formed")
        assert code == 0
        assert "well-formed: yes" in out

    def test_normal_check(self, capsys):
        code, out, _ = run(capsys, "check", EXAMPLE2, "--what", "normal")
        assert code == 1
        assert "no facts: no" in out

    def test_equiv_with_transformed_output(self, capsys, tmp_path):
        code, transformed, _ = run(capsys, "transform", EXAMPLE2, "--stage", "normal")
        assert code == 0
        out_file = tmp_path / "normal.dfl"
        out_file.write_text(transformed)
        code, out, _ = run(capsys, "check", EXAMPLE2, str(out_file),
                           "--what", "equiv", "--sigma", "e,a,b,c,d")
        assert code == 0
        assert "yes" in out

    def test_equiv_detects_divergence(self, capsys, tmp_path):
        f1 = tmp_path / "one.dfl"
        f2 = tmp_path / "two.dfl"
        f1.write_text("r: => p.\n")
        f2.write_text("r: -> p.\n")
        code, out, _ = run(capsys, "check", str(f1), str(f2),
                           "--what", "equiv", "--sigma", "p")
        assert code == 1
        assert "no" in out

    def test_equiv_exposes_non_modular_split(self, capsys, tmp_path):
        from deflog import normal, parse, print_theory, theory_union

        d1 = parse("r1: a -> b.")
        d2 = parse("r2: -> a.")
        whole = tmp_path / "whole.dfl"
        split = tmp_path / "split.dfl"
        whole.write_text(print_theory(theory_union(d1, d2)))
        split.write_text(print_theory(theory_union(normal(d1)[0], d2)))
        code, _, _ = run(capsys, "check", str(whole), str(split),
                         "--what", "equiv", "--sigma", "a,b",
                         "--allow-generated")
        assert code == 1

    def test_parse_error_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.dfl"
        f.write_text("r: => .\n")
        code, _, err = run(capsys, "check", str(f), "--what", "normal")
        assert code == 2

    def test_non_complementary_pair_reported(self, capsys, tmp_path):
        f = tmp_path / "nc.dfl"
        f.write_text("r1: => p. r2: => q. r1 > r2.\n")
        code, out, _ = run(capsys, "check", str(f), "--what", "well-formed")
        assert code == 1
        assert out == ("superiority between rules with non-complementary heads\n"
                       "well-formed: no\n")

    def test_equiv_without_second_file_exit_3(self, capsys):
        code, out, err = run(capsys, "check", EXAMPLE2, "--what", "equiv")
        assert code == 3
        assert out == ""
        assert "check --what equiv needs a second theory file" in err


class TestClassify:
    def test_strict_loop(self, capsys, tmp_path):
        f = tmp_path / "loop.dfl"
        f.write_text("r: p -> p.\n")
        code, out, _ = run(capsys, "classify", str(f), "--atom", "p")
        assert code == 0
        assert out.strip() == "p: A ~p: F pair: Poss"

    def test_cyclic_theory_allowed(self, capsys, tmp_path):
        f = tmp_path / "dd.dfl"
        f.write_text("r1: => p. r2: => ~p. r1 > r2. r2 > r1.\n")
        code, out, _ = run(capsys, "classify", str(f), "--atom", "p")
        assert code == 0
        assert out.strip() == "p: D ~p: D pair: NP3"

    def test_plain_defeasible(self, capsys, tmp_path):
        f = tmp_path / "d.dfl"
        f.write_text("r: => p.\n")
        code, out, _ = run(capsys, "classify", str(f), "--atom", "p")
        assert code == 0
        assert out.strip() == "p: D ~p: F pair: Poss"

    def test_unknown_atom_exit_3(self, capsys, tmp_path):
        f = tmp_path / "d.dfl"
        f.write_text("r: => p.\n")
        code, _, err = run(capsys, "classify", str(f), "--atom", "q")
        assert code == 3
        assert "unknown atom" in err

    @pytest.mark.parametrize("atom", ["", "p,q"])
    def test_atom_count_exit_2(self, capsys, tmp_path, atom):
        f = tmp_path / "d.dfl"
        f.write_text("r: => p.\n")
        code, _, err = run(capsys, "classify", str(f), "--atom", atom)
        assert code == 2
        assert "in --atom: expected exactly one atom" in err

    def test_declared_atom_on_empty_theory(self, capsys, tmp_path):
        f = tmp_path / "empty.dfl"
        f.write_text("")
        code, out, _ = run(capsys, "classify", str(f), "--atom", "p", "--atoms", "p")
        assert code == 0
        assert out.strip() == "p: F ~p: F pair: Poss"

    def test_declared_atom_with_arguments(self, capsys, tmp_path):
        f = tmp_path / "schema.dfl"
        f.write_text("f(c). r1: f(X) => g(X).\n")
        code, out, _ = run(capsys, "classify", str(f), "--ground",
                           "--atom", "h(c,d)", "--atoms", "g(c),h(c,d)")
        assert code == 0
        assert out.strip() == "h(c,d): F ~h(c,d): F pair: Poss"
        code, out, _ = run(capsys, "classify", str(f), "--ground",
                           "--atom", "g(c)", "--atoms", "g(c)")
        assert out.strip() == "g(c): D ~g(c): F pair: Poss"


@pytest.mark.parametrize("entry", ["g(X)", "g()", "g(c", "g(c))", "P", "~p", "p,", "p q",
                                   "p%q"])
@pytest.mark.parametrize("argv", [("conclusions", "--ground", "--atoms"),
                                  ("classify", "--ground", "--atom"),
                                  ("classify", "--ground", "--atom", "g(c)", "--atoms"),
                                  ("check", EXAMPLE1, "--what", "equiv", "--sigma")],
                         ids=["conclusions-atoms", "classify-atom", "classify-atoms",
                              "check-sigma"])
def test_malformed_atom_exit_2(capsys, tmp_path, argv, entry):
    f = tmp_path / "schema.dfl"
    f.write_text("f(c). r1: f(X) => g(X).\n")
    code, out, err = run(capsys, argv[0], str(f), *argv[1:], entry)
    assert code == 2
    assert out == ""
    assert f"in {argv[-1]}: " in err


class TestGen:
    def test_deterministic_output(self, capsys):
        args = ["gen", "--seed", "11", "--num-rules", "8", "--sup-density", "0.3",
                "--force-well-formed"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second and first

    def test_output_parses(self, capsys):
        from deflog import parse

        _, out, _ = run(capsys, "gen", "--seed", "3", "--num-facts", "2",
                        "--defeater-fraction", "0.3")
        parse(out)

    def test_fraction_outside_unit_interval_exit_3(self, capsys):
        code, out, err = run(capsys, "gen", "--seed", "1", "--sup-density", "1.5")
        assert code == 3
        assert out == ""
        assert "sup_density must lie in [0, 1], not 1.5" in err
        code, out, err = run(capsys, "gen", "--seed", "1", "--num-atoms", "3", "--num-rules",
                             "5", "--strict-fraction", "0.7", "--defeater-fraction", "0.7")
        assert code == 3
        assert out == ""
        assert "strict_fraction + defeater_fraction must not exceed 1, not 0.7 + 0.7" in err


def test_subcommands_are_deterministic(capsys):
    first = run(capsys, "conclusions", EXAMPLE3)
    second = run(capsys, "conclusions", EXAMPLE3)
    assert first == second
