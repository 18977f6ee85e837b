import argparse
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from covlang.cli import build_parser, main
from covlang.fsa import enumerate_words
from covlang.presburger import free_vars, parse_smtlib_script
from covlang.textio import parse_fsa, parse_net, print_net
from covlang.families import ackermann_instance, bpp_power_instance, rackoff_counterexample


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as stop:
                code = stop.code
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def power2_doc():
    return print_net(bpp_power_instance(2))


@pytest.fixture
def rackoff_doc():
    return print_net(rackoff_counterexample())


class TestPipelines:
    def test_gen_then_down_closure(self):
        code, doc, _ = run_cli(["gen", "bpp-power", "2"])
        assert code == 0
        code, out, _ = run_cli(["closure", "--dir", "down"], stdin_text=doc)
        assert code == 0
        body = "\n".join(
            line for line in out.splitlines() if not line.startswith("#")
        )
        fsa = parse_fsa(body)
        assert enumerate_words(fsa, 5) == {("a",) * k for k in range(5)}

    def test_member_up(self, rackoff_doc):
        code, out, _ = run_cli(
            ["member", "--mode", "up", "-w", "aab"], stdin_text=rackoff_doc
        )
        assert code == 0 and "member" in out
        code, _, _ = run_cli(
            ["member", "--mode", "up", "-w", "b"], stdin_text=rackoff_doc
        )
        assert code == 1

    def test_sre_in_down_fails(self, power2_doc):
        code, out, _ = run_cli(
            ["sre-in", "--dir", "down", "-e", "{a}*"], stdin_text=power2_doc
        )
        assert code == 1 and "fails" in out

    def test_sre_in_routes_agree(self, power2_doc):
        for route in ("pn", "bpp"):
            code, _, _ = run_cli(
                ["sre-in", "--dir", "down", "-e", "a.a.a.a", "--route", route],
                stdin_text=power2_doc,
            )
            assert code == 0

    def test_cover(self, rackoff_doc):
        code, out, _ = run_cli(["cover"], stdin_text=rackoff_doc)
        assert code == 0 and "rt_a" in out

    def test_is_closed(self, power2_doc):
        code, out, _ = run_cli(["is-closed", "--dir", "down"], stdin_text=power2_doc)
        assert code == 1 and "not-closed" in out

    def test_suppn(self, rackoff_doc):
        code, _, _ = run_cli(["suppn", "-X", "temp"], stdin_text=rackoff_doc)
        assert code == 0
        code, _, _ = run_cli(["suppn", "-X", "stop"], stdin_text=rackoff_doc)
        assert code == 1

    def test_km(self, rackoff_doc):
        code, out, _ = run_cli(["km"], stdin_text=rackoff_doc)
        assert code == 0
        assert out == (
            "node 0 run:1\n"
            "node 1 run:1,temp:w\n"
            "node 2 stop:1\n"
            "node 3 temp:w,stop:1\n"
            "edge 0 rt_help 1\n"
            "edge 0 rt_a 2\n"
            "edge 1 rt_help 1\n"
            "edge 1 rt_b 3\n"
            "edge 1 rt_a 3\n"
        )

    # token counts and arc weights are unbounded ints: ones too large for a
    # float must not meet omega arithmetic
    HUGE = 10**400

    @pytest.mark.parametrize(
        "init, post",
        [(f"big:{HUGE},pump:1", "pump:2"), ("pump:1", f"pump:2,big:{HUGE}")],
        ids=["count", "weight"],
    )
    def test_huge_integers(self, init, post):
        doc = (
            "alphabet a\nplace big\nplace pump\n"
            f"trans t label a pre pump:1 post {post}\n"
            f"init {init}\nfinal pump:1\n"
        )
        code, out, _ = run_cli(["km"], stdin_text=doc)
        assert code == 0 and "pump:w" in out
        code, out, _ = run_cli(["sre-in", "--dir", "down", "-e", "a.a"], stdin_text=doc)
        assert code == 0 and "holds" in out
        code, out, _ = run_cli(["closure", "--dir", "down"], stdin_text=doc)
        assert code == 0 and out.startswith("# exactness: exact\n")
        code, out, _ = run_cli(["is-closed", "--dir", "down"], stdin_text=doc)
        assert code == 0 and out == "closed\n"

    def test_reg_in(self, rackoff_doc, tmp_path):
        doc = "alphabet a b c\nstate q0 initial\nstate q1\nstate q2 final\nedge q0 a q1\nedge q1 b q2\n"
        path = tmp_path / "ab.fsa"
        path.write_text(doc)
        code, out, _ = run_cli(["reg-in", "-a", str(path)], stdin_text=rackoff_doc)
        assert code == 0 and "included" in out

    def test_bounds(self, power2_doc):
        code, out, _ = run_cli(["bound", "bpp-cutoff"], stdin_text=power2_doc)
        assert code == 0 and "1728" in out
        code, out, _ = run_cli(["bound", "bpp-short"], stdin_text=power2_doc)
        assert code == 0 and "32" in out
        code, out, _ = run_cli(["bound", "rackoff"], stdin_text=power2_doc)
        assert code == 0 and "rackoff_f" in out and "rackoff_g" in out


class TestExportAndErrors:
    def test_export_dot_net(self, power2_doc):
        code, out, _ = run_cli(["export", "--dot"], stdin_text=power2_doc)
        assert code == 0 and out.startswith("digraph")

    def test_export_smt2(self, power2_doc, tmp_path):
        code, out, _ = run_cli(
            [
                "export",
                "--smt2",
                "--dir",
                "down",
                "-e",
                "{a}*",
                "-o",
                str(tmp_path),
            ],
            stdin_text=power2_doc,
        )
        assert code == 0
        emitted = list(tmp_path.glob("*.smt2"))
        assert emitted and "(check-sat)" in emitted[0].read_text()
        assert out == f"{tmp_path / 'p-witness-1.smt2'}\n"

    @pytest.mark.parametrize("direction, name", [("up", "staged-cover-1"), ("down", "p-witness-1")])
    def test_export_smt2_of_a_long_product(self, direction, name, tmp_path):
        # a formula this long nests past the recursion limit unless its
        # conjunctions are balanced and its binders are walked in a loop
        _, doc, _ = run_cli(["gen", "bpp-power", "3"])
        argv = ["export", "--smt2", "--dir", direction, "-e", ".".join("a" * 400), "-o", str(tmp_path)]
        code, out, err = run_cli(argv, stdin_text=doc)
        assert code == 0, err
        target = tmp_path / f"{name}.smt2"
        assert out == f"{target}\n"
        names, formula = parse_smtlib_script(target.read_text())
        assert names == sorted(free_vars(formula))

    def test_usage_error(self):
        code, _, err = run_cli(["member"])  # missing -w
        assert code == 64

    def test_member_undeclared_letter_is_an_error(self):
        _, doc, _ = run_cli(["gen", "bpp-power", "2"])
        code, out, err = run_cli(["member", "-w", "z"], stdin_text=doc)
        assert code == 3 and out == ""
        assert err.startswith("covlang: ") and "undeclared letters" in err

    def test_cover_node_budget_is_unknown(self):
        _, doc, _ = run_cli(["gen", "bpp-power", "4"])
        code, _, err = run_cli(["--budget-nodes", "5", "cover"], stdin_text=doc)
        assert code == 2 and "backward-coverability markings budget of 5" in err

    def test_is_closed_down_node_budget_is_unknown(self):
        # the coverability graph of bpp-power(10) has 2^10 + 2 nodes
        doc = print_net(bpp_power_instance(10))
        argv = ["--budget-nodes", "1000", "is-closed", "--dir", "down"]
        code, out, _ = run_cli(argv, stdin_text=doc)
        assert code == 2
        assert out == "unknown (karp-miller nodes budget of 1000 exceeded)\n"

    def test_sre_in_up_node_budget_is_unknown(self, power2_doc):
        argv = ["--budget-nodes", "0", "sre-in", "--dir", "up", "-e", "a.a.a.a"]
        for route in ("auto", "pn"):
            code, out, _ = run_cli([*argv, "--route", route], stdin_text=power2_doc)
            assert code == 2
            assert out == "unknown (backward-coverability markings budget of 0 exceeded)\n"

    def test_sre_in_down_bpp_route_keeps_node_budget(self):
        doc = print_net(bpp_power_instance(4))
        argv = ["--budget-nodes", "5", "sre-in", "--dir", "down", "-e", "{a}*"]
        for route in ("auto", "bpp", "pn"):
            code, out, _ = run_cli([*argv, "--route", route], stdin_text=doc)
            assert code == 2
            assert out == "unknown (karp-miller nodes budget of 5 exceeded)\n"

    def test_sre_in_down_does_not_import_scipy(self, power2_doc):
        script = (
            "import sys\n"
            "from covlang.cli import main\n"
            "code = main(['sre-in', '--dir', 'down', '-e', '{a}*', '--route', 'bpp'])\n"
            "print(code, 'scipy' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            input=power2_doc,
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.stdout.splitlines() == ["fails", "1 False"], proc.stderr

    def test_sre_in_up_bpp_route_rejects_synchronizing_net(self, rackoff_doc):
        argv = ["sre-in", "--dir", "up", "-e", "a", "--route", "bpp"]
        code, out, err = run_cli(argv, stdin_text=rackoff_doc)
        assert code == 3 and out == ""
        assert err.startswith("covlang: ") and "sre_in_uc_pn" in err

    def test_negative_node_budget_is_a_usage_error(self, rackoff_doc):
        for command in (["cover"], ["sre-in", "--dir", "up", "-e", "a"]):
            code, out, err = run_cli(
                ["--budget-nodes", "-1", *command], stdin_text=rackoff_doc
            )
            assert code == 64 and out == ""
            assert "--budget-nodes" in err

    def test_closure_up_node_budget_is_unknown(self, rackoff_doc):
        argv = ["--budget-nodes", "1", "closure", "--dir", "up"]
        code, out, err = run_cli(argv, stdin_text=rackoff_doc)
        assert code == 2 and out == ""
        assert "backward pairs budget of 1 exceeded" in err

    def test_closure_up_k_mode_keeps_node_budget(self):
        doc = print_net(bpp_power_instance(4))
        argv = ["--budget-nodes", "5", "closure", "--dir", "up", "--mode", "k=40"]
        code, out, err = run_cli(argv, stdin_text=doc)
        assert code == 2 and out == ""
        assert "budget of 5 exceeded" in err

    def test_closure_down_rejects_mode(self, rackoff_doc):
        argv = ["closure", "--dir", "down", "--mode", "bogus"]
        code, out, err = run_cli(argv, stdin_text=rackoff_doc)
        assert code == 3 and out == ""
        assert err.startswith("covlang: parse error: ")

    @pytest.mark.parametrize("mode", ["k=x", "k=-1"])
    def test_closure_bad_k_is_a_parse_error(self, rackoff_doc, mode):
        argv = ["closure", "--dir", "up", "--mode", mode]
        code, out, err = run_cli(argv, stdin_text=rackoff_doc)
        assert code == 3 and out == ""
        assert err.startswith("covlang: parse error: ") and mode in err

    def test_missing_net_file_is_an_error(self, tmp_path):
        missing = tmp_path / "missing.net"
        code, out, err = run_cli(["-f", str(missing), "cover"])
        assert code == 3 and out == ""
        assert err.startswith("covlang: ") and str(missing) in err

    def test_missing_automaton_file_is_an_error(self, rackoff_doc, tmp_path):
        net = tmp_path / "rackoff.net"
        net.write_text(rackoff_doc)
        missing = tmp_path / "missing.fsa"
        code, out, err = run_cli(["-f", str(net), "reg-in", "-a", str(missing)])
        assert code == 3 and out == ""
        assert err.startswith("covlang: ") and str(missing) in err

    def test_parse_error(self):
        code, _, err = run_cli(["cover"], stdin_text="trans t pre q:1\n")
        assert code == 3 and "parse error" in err

    @pytest.mark.parametrize(
        "net_doc, fsa_doc",
        [
            (
                "alphabet eps\nplace p\nplace q\n"
                "trans t label eps pre p:1 post q:1\ninit p:1\nfinal q:1\n",
                None,
            ),
            (
                "alphabet a\nplace p\nplace q\n"
                "trans t label a pre p:1 post q:1\ninit p:1\nfinal q:1\n",
                "alphabet a eps\nstate S0 initial final\n",
            ),
        ],
        ids=["net", "automaton"],
    )
    def test_eps_is_not_a_letter(self, net_doc, fsa_doc, tmp_path):
        """``eps`` is the silent edge of automaton documents and the empty
        word of words; as a declared letter it would print closures that
        read back with other languages."""
        argv = ["closure", "--dir", "up"]
        if fsa_doc is not None:
            automaton = tmp_path / "eps.fsa"
            automaton.write_text(fsa_doc)
            argv = ["reg-in", "-a", str(automaton)]
        code, out, err = run_cli(argv, stdin_text=net_doc)
        assert code == 3 and out == ""
        assert "parse error" in err and "'eps'" in err

    def test_gen_writes_parseable_documents(self):
        for family, params in [
            ("rackoff-ce", []),
            ("bpp-power", ["3"]),
            ("ackermann", ["1", "1"]),
        ]:
            code, out, _ = run_cli(["gen", family, *params])
            assert code == 0
            parse_net(out)

    def test_console_script_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "covlang.cli", "gen", "bpp-power", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "place p0" in proc.stdout


class TestDeterminism:
    def test_closure_output_stable(self, power2_doc, rackoff_doc):
        for doc, direction in ((power2_doc, "down"), (rackoff_doc, "up")):
            outputs = {
                run_cli(["closure", "--dir", direction], stdin_text=doc)[1]
                for _ in range(3)
            }
            assert len(outputs) == 1
            assert outputs.pop().startswith("# exactness: exact\n")


    def test_output_does_not_depend_on_the_hash_seed(self, rackoff_doc, tmp_path):
        """Automata built from sets of triples or of string-named states list
        their rows in hash order; what the verbs print does not."""
        automaton = tmp_path / "hand.fsa"
        automaton.write_text(
            "alphabet a b c\nstate start initial\nstate mid\nstate end final\n"
            "state loop final\nedge start a mid\nedge mid c end\nedge mid b loop\n"
            "edge loop c loop\nedge loop eps end\nedge start c end\n"
        )
        power3_doc = print_net(bpp_power_instance(3))
        runs = [
            *(
                (["closure", "--dir", direction], doc)
                for direction in ("up", "down")
                for doc in (rackoff_doc, power3_doc)
            ),
            (["km"], print_net(ackermann_instance(1, 1))),
            (["is-closed", "--dir", "up"], rackoff_doc),
            (["reg-in", "-a", str(automaton)], rackoff_doc),
        ]
        script = (
            "import io, json, sys\n"
            "from covlang.cli import main\n"
            "for argv, doc in json.load(sys.stdin):\n"
            "    sys.stdin = io.StringIO(doc)\n"
            "    print('exit', main(argv))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = {}
        for seed in ("0", "1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                input=json.dumps(runs),
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
            )
            assert proc.returncode == 0, proc.stderr
            outputs[seed] = proc.stdout
        assert outputs["0"] == outputs["1"] == outputs["2"]
        assert outputs["0"].count("exit ") == len(runs)
        assert "not-included counterexample a,b,c\n" in outputs["0"]


def _readme_cli_section():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = text.index("\n## CLI\n")
    return text[start : text.index("\n## ", start + 1)]


def _parser_and_commands():
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, sub.choices


def _named(option, text):
    return re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text) is not None


class TestReadmeSynopsis:
    def test_every_command_and_global_option_is_documented(self):
        section = _readme_cli_section()
        parser, commands = _parser_and_commands()
        for name in commands:
            assert re.search(rf"`{re.escape(name)}[` ]", section), name
        for action in parser._actions:
            if action.option_strings and not isinstance(action, argparse._HelpAction):
                spellings = action.option_strings
                assert any(_named(s, section) for s in spellings), spellings

    def test_every_documented_option_exists(self):
        parser, commands = _parser_and_commands()
        known = {
            s
            for p in (parser, *commands.values())
            for action in p._actions
            for s in action.option_strings
        }
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", _readme_cli_section()))
        assert named <= known, sorted(named - known)
