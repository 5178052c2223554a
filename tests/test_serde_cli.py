"""JSON serialization round trips and the command-line interface."""

import argparse
import ast
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import poscones.acceptance
from poscones import (
    FieldDesc,
    InternalInvariantViolation,
    MatD,
    ParseError,
    classify_all,
    diag_form,
    zoo_algebra,
    zoo_names,
)
from poscones.cli import COMMANDS, _build_parser, main
from poscones.serde import (
    algebra_from_json,
    algebra_to_json,
    delem_from_json,
    delem_to_json,
    field_from_json,
    field_to_json,
    form_from_json,
    form_to_json,
    matd_from_json,
    matd_to_json,
    ordering_info_to_json,
    ordering_name,
    parse_ordering,
)

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
DATA = Path(__file__).resolve().parent / "data"
UNIT_FORM_2 = '{"rank":1,"gram":[[[[["1"],["0"]],[["0"],["1"]]]]]}'
INDEF_ELEMENT = '[[["1"],["0"]],[["0"],["-1"]]]'
IDENT_ELEMENT = '[[["1"],["0"]],[["0"],["1"]]]'
SPLIT_Q_1 = {"field": {"kind": "rationals"}, "div": {"kind": "split"},
             "ell": 1, "phi": [[["1"]]]}
TASK_COMMANDS = {
    "classify", "sign", "diag", "collapse", "cones", "member", "posinv",
    "hsigma", "presylvester", "maximal-on", "weakrep",
}

# Subcommand flags over split-q-2, and the task of the equivalent one-task
# problem file, whose form is named "u" and whose elements "one" and "w".
PARITY = [
    ("classify", [], {}),
    ("sign", ["--form", UNIT_FORM_2], {"form": "u"}),
    ("sign", ["--form", UNIT_FORM_2, "--ordering", "P0"],
     {"form": "u", "ordering": "P0"}),
    ("diag", ["--form", UNIT_FORM_2], {"form": "u"}),
    ("collapse", ["--form", UNIT_FORM_2], {"form": "u"}),
    ("cones", [], {}),
    ("member", ["--element", IDENT_ELEMENT, "--ordering", "P0", "--eps", "+"],
     {"element": "one", "ordering": "P0", "eps": "+"}),
    ("member", ["--element", INDEF_ELEMENT, "--ordering", "P0", "--eps", "-1"],
     {"element": "w", "ordering": "P0", "eps": -1}),
    ("posinv", ["--ordering", "P0"], {"ordering": "P0"}),
    ("hsigma", ["--element", IDENT_ELEMENT, "--element", INDEF_ELEMENT],
     {"elements": ["one", "w"]}),
    ("presylvester", ["--form", UNIT_FORM_2, "--ordering", "P0"],
     {"form": "u", "ordering": "P0"}),
    ("maximal-on", ["--element", IDENT_ELEMENT], {"element": "one"}),
    ("maximal-on", ["--element", INDEF_ELEMENT, "--orderings", "P0"],
     {"element": "w", "orderings": ["P0"]}),
    ("weakrep", ["--form", UNIT_FORM_2, "--element", IDENT_ELEMENT],
     {"form": "u", "element": "one"}),
]


class TestSerde:
    def test_ordering_names(self):
        assert ordering_name(0) == "P0"
        assert parse_ordering("P1") == 1
        assert parse_ordering("p0") == 0
        assert parse_ordering(1) == 1
        assert parse_ordering("1") == 1
        with pytest.raises(ParseError):
            parse_ordering("east")

    def test_field_round_trip(self):
        for field in (FieldDesc(), FieldDesc(2), FieldDesc(5)):
            assert field_from_json(field_to_json(field)) == field

    def test_field_rejects_junk(self):
        with pytest.raises(ParseError):
            field_from_json({"kind": "p-adic"})
        with pytest.raises(ParseError):
            field_from_json({"kind": "real_quadratic", "d": 4})

    @pytest.mark.parametrize("name", sorted(zoo_names()))
    def test_algebra_round_trip(self, name):
        alg = zoo_algebra(name)
        data = algebra_to_json(alg)
        assert algebra_from_json(data) == alg
        # also via a JSON text round trip
        assert algebra_from_json(json.loads(json.dumps(data))) == alg

    def test_element_round_trip_with_radicals(self):
        alg = zoo_algebra("quat-rt2-1")
        div = alg.div
        s = div.base.sqrt_gen()
        x = MatD(div, [[div.basis()[1] + s * div.basis()[2]]])
        data = matd_to_json(x)
        assert matd_from_json(div, data) == x
        e = div.basis()[3]
        assert delem_from_json(div, delem_to_json(e)) == e

    def test_form_round_trip(self):
        alg = zoo_algebra("quad-rt2-2")
        h = diag_form(alg, [alg.identity(), -alg.identity()])
        assert form_from_json(alg, form_to_json(h)) == h

    def test_form_json_validates(self):
        alg = zoo_algebra("split-q-2")
        with pytest.raises(ParseError):
            form_from_json(alg, {"rank": 2, "gram": []})
        with pytest.raises(ParseError):
            form_from_json(alg, {"gram": []})
        with pytest.raises(ParseError):
            # non-hermitian gram
            form_from_json(
                alg,
                {"rank": 1, "gram": [[[["0", "1"], ["0", "0"]]]]},
            )

    def test_ordering_info_json(self):
        info = classify_all(zoo_algebra("quat-rt2-1"))[1]
        assert ordering_info_to_json(info) == {
            "ordering": "P1",
            "class": "rcf",
            "n_P": 2,
            "nil": True,
        }


class TestCliQueries:
    def run(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_classify_json(self, capsys):
        code, out = self.run(
            capsys, "classify", "--zoo", "quad-rt2-1", "--json"
        )
        assert code == 0
        assert json.loads(out) == [
            {"class": "acf", "n_P": 1, "nil": False, "ordering": "P0"},
            {"class": "d-rcf", "n_P": 1, "nil": True, "ordering": "P1"},
        ]

    def test_sign_defaults_to_all_orderings(self, capsys):
        form = '{"rank":1,"gram":[[[[["1","0"]]]]]}'
        code, out = self.run(
            capsys, "sign", "--zoo", "quad-rt2-1", "--form", form, "--json"
        )
        assert code == 0
        assert json.loads(out) == {"P0": 1, "P1": 0}

    def test_diag_hyperbolic(self, capsys):
        form = '{"rank":1,"gram":[[[[["0"],["1"]],[["1"],["0"]]]]]}'
        code, out = self.run(
            capsys, "diag", "--zoo", "split-q-2", "--form", form, "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["entries"] == ["2", "-1/2"]
        assert data["rank"] == 2

    def test_collapse_reports_base_algebra(self, capsys):
        code, out = self.run(
            capsys, "collapse", "--zoo", "split-q-2", "--form", UNIT_FORM_2,
            "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["algebra"]["ell"] == 1
        assert data["form"]["rank"] == 2

    def test_cones_listing(self, capsys):
        code, out = self.run(capsys, "cones", "--zoo", "quat-q-1", "--json")
        assert code == 0
        assert json.loads(out) == [
            {"eps": 1, "ordering": "P0"},
            {"eps": -1, "ordering": "P0"},
        ]

    def test_zoo_lists_everything(self, capsys):
        code, out = self.run(capsys, "zoo", "--json")
        assert code == 0
        names = [r["name"] for r in json.loads(out)]
        assert sorted(names) == sorted(zoo_names())

    def test_posinv(self, capsys):
        code, out = self.run(
            capsys, "posinv", "--zoo", "split-q-2-indef", "--ordering", "P0",
            "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["b"] == [[["1"], ["0"]], [["0"], ["-1"]]]
        assert data["twisted_algebra"]["phi"] == [[["1"], ["0"]], [["0"], ["1"]]]

    def test_presylvester(self, capsys):
        code, out = self.run(
            capsys, "presylvester", "--zoo", "split-q-2",
            "--form", UNIT_FORM_2, "--ordering", "P0", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert (data["r"], data["s"], data["sign"]) == (4, 0, 2)

    def test_hsigma(self, capsys):
        code, out = self.run(
            capsys, "hsigma", "--zoo", "split-q-2",
            "--element", '[[["1"],["0"]],[["0"],["1"]]]', "--json",
        )
        assert code == 0
        assert json.loads(out) == [{"eps": 1, "ordering": "P0"}]


class TestCliBooleans:
    def test_member_exit_codes(self, capsys):
        ident = '[[["1"],["0"]],[["0"],["1"]]]'
        assert main(["member", "--zoo", "split-q-2", "--element", ident,
                     "--ordering", "P0"]) == 0
        capsys.readouterr()
        assert main(["member", "--zoo", "split-q-2", "--element",
                     INDEF_ELEMENT, "--ordering", "P0"]) == 1
        out = capsys.readouterr().out
        assert out.strip() == "false"
        assert main(["member", "--zoo", "split-q-2", "--element",
                     INDEF_ELEMENT, "--ordering", "P0", "--eps", "-1"]) == 1

    def test_maximal_on_exit_codes(self, capsys):
        ident = '[[["1"],["0"]],[["0"],["1"]]]'
        assert main(["maximal-on", "--zoo", "split-q-2",
                     "--element", ident]) == 0
        capsys.readouterr()
        assert main(["maximal-on", "--zoo", "split-q-2",
                     "--element", INDEF_ELEMENT]) == 1


class TestCommandTable:
    def test_subcommands_come_from_the_table(self):
        [sub] = [
            a for a in _build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(COMMANDS) == TASK_COMMANDS
        assert set(sub.choices) == TASK_COMMANDS | {"run", "selftest", "zoo"}

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_parity_cases_cover_every_command(self):
        assert {command for command, _, _ in PARITY} == set(COMMANDS)

    @pytest.mark.parametrize(
        "command, flags, task", PARITY,
        ids=[f"{c}-{i}" for i, (c, _, _) in enumerate(PARITY)],
    )
    def test_subcommand_prints_the_run_result(self, capsys, command, flags, task):
        code = main([command, "--zoo", "split-q-2", *flags, "--json"])
        printed = capsys.readouterr().out
        problem = {
            "schema": "1",
            "zoo": "split-q-2",
            "forms": {"u": json.loads(UNIT_FORM_2)},
            "elements": {
                "one": json.loads(IDENT_ELEMENT),
                "w": json.loads(INDEF_ELEMENT),
            },
            "tasks": [dict(task, command=command)],
        }
        run_code = main(["run", json.dumps(problem), "--json"])
        [result] = json.loads(capsys.readouterr().out)["results"]
        assert code == run_code
        assert printed == json.dumps(
            result["result"], sort_keys=True, separators=(",", ":")
        ) + "\n"

    def test_weakrep_search_flags(self, capsys):
        # the weak representation is built, not searched for: no seed, no budget
        weakrep = ["weakrep", "--zoo", "split-q-2", "--form", UNIT_FORM_2,
                   "--element", IDENT_ELEMENT]
        run = ["run", json.dumps({"schema": "1", "zoo": "split-q-1", "tasks": []})]
        for argv in (weakrep + ["--budget", "4"], weakrep + ["--budget", "0"],
                     run + ["--seed", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_weakrep_needs_two_generators(self, capsys):
        assert main(["weakrep", "--zoo", "quad-rt2-1",
                     "--form", '{"rank":1,"gram":[[[[["1","0"]]]]]}',
                     "--element", '[[["3+sqrt(2)","0"]]]', "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "yes" and data["copies"] == 3


class TestCliErrors:
    def test_algebra_source_is_exclusive(self, capsys):
        alg_json = json.dumps(algebra_to_json(zoo_algebra("split-q-1")))
        assert main(["classify", "--zoo", "split-q-1",
                     "--algebra", alg_json]) == 2
        assert main(["classify"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_unknown_zoo_name(self, capsys):
        assert main(["classify", "--zoo", "split-q-9"]) == 2

    def test_bad_form_json(self, capsys):
        assert main(["sign", "--zoo", "split-q-2", "--form", "{"]) == 2
        assert main(["sign", "--zoo", "split-q-2",
                     "--form", '{"rank":1}']) == 2

    def test_oversized_discriminant(self, capsys):
        alg = {
            "field": {"kind": "real_quadratic", "d": 10**24 + 7},
            "ell": 1,
            "div": {"kind": "split"},
            "phi": [[["1"]]],
        }
        assert main(["classify", "--algebra", json.dumps(alg)]) == 2
        assert "10**12" in capsys.readouterr().err

    @pytest.mark.parametrize("div", [
        {"kind": "quad", "d": "1/0"},
        {"kind": "quat", "a": "0/0", "b": "1"},
        {"kind": "quat", "a": "1", "b": "-2/0"},
    ], ids=["quad-d", "quat-a", "quat-b"])
    def test_zero_denominator_in_a_parameter_is_one_line(self, capsys, div):
        dim = 2 if div["kind"] == "quad" else 4
        alg = {"field": {"kind": "rationals"}, "div": div, "ell": 1,
               "phi": [[["1"] + ["0"] * (dim - 1)]]}
        assert main(["cones", "--algebra", json.dumps(alg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: zero denominator in field element")

    def test_nil_ordering_is_an_error(self, capsys):
        assert main(["posinv", "--zoo", "quad-rt2-1",
                     "--ordering", "P1"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sign", "--zoo", "split-q-2", "--table"],
            [],
            ["--json"],
            ["diag", "--zoo", "split-q-2", "--form", UNIT_FORM_2,
             "--strategy", "last"],
        ],
        ids=["unknown-flag", "no-subcommand", "flag-without-subcommand",
             "diag-strategy"],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1", "1e300", "10.5"])
    def test_selftest_scale_is_finite_and_positive(self, capsys, scale):
        assert main(["selftest", f"--scale={scale}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: --scale ")

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sign", "--help"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: poscones sign") and "--form" in out
        assert err == ""

    def test_deeply_nested_file_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["run", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: invalid JSON: nested too deeply\n"

    def test_boolean_is_not_an_ordering(self):
        for raw in (False, True):
            with pytest.raises(ParseError):
                parse_ordering(raw)
        assert parse_ordering(1) == 1

    @pytest.mark.parametrize("raw", ["P\u00b2", "\u00b9", "P\u2082"])
    def test_superscript_and_subscript_digits_are_not_an_ordering(self, raw):
        # str.isdigit accepts them, but int() does not
        with pytest.raises(ParseError, match="cannot parse ordering"):
            parse_ordering(raw)


class TestProblemFiles:
    def test_run_all_true(self, capsys, tmp_path):
        problem = {
            "schema": "1",
            "zoo": "split-q-2",
            "forms": {"u": json.loads(UNIT_FORM_2)},
            "elements": {"one": json.loads('[[["1"],["0"]],[["0"],["1"]]]')},
            "tasks": [
                {"command": "classify"},
                {"command": "sign", "form": "u"},
                {"command": "member", "element": "one", "ordering": "P0"},
                {"command": "weakrep", "form": "u", "element": "one"},
            ],
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        code = main(["run", str(path), "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert [r["command"] for r in data["results"]] == [
            "classify", "sign", "member", "weakrep",
        ]
        assert data["results"][1]["result"] == {"P0": 2}
        assert data["results"][3]["result"]["status"] == "yes"

    def test_run_false_member_sets_exit_one(self, capsys):
        problem = {
            "schema": "1",
            "zoo": "split-q-2",
            "elements": {"w": json.loads(INDEF_ELEMENT)},
            "tasks": [{"command": "member", "element": "w", "ordering": "P0"}],
        }
        assert main(["run", json.dumps(problem)]) == 1

    def test_superscript_ordering_is_a_one_line_parse_error(self, capsys):
        problem = {
            "schema": "1",
            "zoo": "split-q-2",
            "elements": {"w": json.loads(INDEF_ELEMENT)},
            "tasks": [{"command": "member", "element": "w", "ordering": "P\u00b2"}],
        }
        assert main(["run", json.dumps(problem)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: task 0 (member): cannot parse ordering 'P\u00b2'\n"

    def test_run_validates_schema(self, capsys):
        assert main(["run", json.dumps({"schema": "2", "zoo": "split-q-1",
                                        "tasks": []})]) == 2
        assert main(["run", json.dumps({"schema": "1", "tasks": []})]) == 2
        assert main(["run", json.dumps({"schema": "1", "zoo": "split-q-1"})]) == 2

    @pytest.mark.parametrize("stem", ["every-command", "every-command-untwisted"])
    def test_answers_match_the_recorded_output(self, capsys, stem):
        # every task command; the .out.json files were written before the
        # forms and elements cached their reduced diagonals
        problem = DATA / f"{stem}.json"
        assert main(["run", str(problem), "--json"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert out == (DATA / f"{stem}.out.json").read_text()

    @pytest.mark.parametrize(
        "task",
        [
            {"command": "member", "element": "bad", "ordering": "P0"},
            {"command": "hsigma", "elements": ["one", "bad"]},
        ],
    )
    def test_non_symmetric_element_fails_its_task(self, capsys, task):
        # [[0, 1], [1, 0]] is not symmetric for the twist phi = diag(1, -1)
        problem = {
            "schema": "1",
            "zoo": "split-q-2-indef",
            "elements": {"one": json.loads(IDENT_ELEMENT),
                         "bad": [[["0"], ["1"]], [["1"], ["0"]]]},
            "tasks": [{"command": "cones"}, task],
        }
        assert main(["run", json.dumps(problem)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: task 1 ({task['command']}): ")

    def test_unused_non_symmetric_element_is_no_error(self, capsys):
        problem = {
            "schema": "1",
            "zoo": "split-q-2-indef",
            "elements": {"phi": json.loads(INDEF_ELEMENT),
                         "bad": [[["0"], ["1"]], [["1"], ["0"]]]},
            "tasks": [{"command": "member", "element": "phi", "ordering": "P0"}],
        }
        assert main(["run", json.dumps(problem)]) == 0
        assert capsys.readouterr().err == ""

    def test_unknown_task_reference(self, capsys):
        problem = {
            "schema": "1",
            "zoo": "split-q-1",
            "tasks": [{"command": "sign", "form": "missing"}],
        }
        assert main(["run", json.dumps(problem)]) == 2

    @pytest.mark.parametrize("ordering", [7, "P7"])
    def test_out_of_range_ordering_carries_the_task_prefix(self, capsys, ordering):
        problem = {
            "schema": "1",
            "zoo": "split-q-1",
            "forms": {"f": {"rank": 1, "gram": [[[[["1"]]]]]}},
            "tasks": [{"command": "sign", "form": "f", "ordering": ordering}],
        }
        assert main(["run", json.dumps(problem)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: task 0 (sign): ordering 7 is not valid for Q\n"


    @pytest.mark.parametrize(
        "malformed",
        [
            {"forms": [1]},
            {"forms": "u"},
            {"elements": [1]},
            {"zoo": ["split-q-2"]},
            {"tasks": [{"command": ["sign"]}]},
            {"forms": {"u": json.loads(UNIT_FORM_2)},
             "tasks": [{"command": "sign", "form": ["u"]}]},
            {"elements": {"one": json.loads(IDENT_ELEMENT)},
             "tasks": [{"command": "member", "element": {"one": 1},
                        "ordering": "P0"}]},
            {"elements": {"one": json.loads(IDENT_ELEMENT)},
             "tasks": [{"command": "hsigma", "elements": "one"}]},
            {"tasks": [{"command": "hsigma", "elements": [1]}]},
            {"elements": {"one": json.loads(IDENT_ELEMENT)},
             "tasks": [{"command": "maximal-on", "element": "one",
                        "orderings": 5}]},
            {"elements": {"one": json.loads(IDENT_ELEMENT)},
             "tasks": [{"command": "maximal-on", "element": "one",
                        "orderings": {"P0": 1}}]},
            {"tasks": [{"command": "posinv", "ordering": False}]},
            {"forms": {"u": json.loads(UNIT_FORM_2)},
             "tasks": [{"command": "diag", "form": "u", "strategy": "last"}]},
            {"forms": {"u": json.loads(UNIT_FORM_2)},
             "tasks": [{"command": "sign", "form": "u", "orderng": "P1"}]},
            # integer fields: int() would truncate a float or a bool
            {"field": {"kind": "real_quadratic", "d": 2.5}},
            {"algebra": {**SPLIT_Q_1, "ell": 1.9}},
            {"algebra": {**SPLIT_Q_1, "ell": True}},
            {"forms": {"u": {**json.loads(UNIT_FORM_2), "rank": 1.5}}},
            {"forms": {"u": {**json.loads(UNIT_FORM_2), "rank": True}}},
        ],
    )
    def test_malformed_file_is_a_one_line_error(self, capsys, malformed):
        problem = {"schema": "1", "zoo": "split-q-2", "tasks": [], **malformed}
        if "algebra" in malformed:
            del problem["zoo"]
        assert main(["run", json.dumps(problem)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestSelftest:
    def test_small_scale_passes_every_criterion(self, capsys):
        assert main(["selftest", "--scale", "0.01", "--json"]) == 0
        criteria = json.loads(capsys.readouterr().out)["criteria"]
        assert [c["criterion"] for c in criteria] == list(range(1, 11))
        assert all(c["passed"] for c in criteria)
        assert all(c["seconds"] >= 0 for c in criteria)

    def test_text_lines_carry_the_wall_time(self, capsys):
        assert main(["selftest", "--scale", "0.01"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == 10
        assert all(re.fullmatch(r"criterion +\d+  PASS  .+  \(\d+\.\ds\)  \S.*", x)
                   for x in lines)

    def test_text_lines_carry_the_detail(self, capsys, monkeypatch):
        def broken(seed, scale):
            raise InternalInvariantViolation("broken on purpose")

        monkeypatch.setattr(
            poscones.acceptance, "CRITERIA",
            (broken, poscones.acceptance.identity_positivity),
        )
        assert main(["selftest"]) == 1
        first, second = capsys.readouterr().out.splitlines()[1:]
        assert re.fullmatch(
            r"criterion  1  FAIL  .+  \(\d+\.\ds\)  raised InternalInvariantViolation: "
            r"broken on purpose \(in broken, line \d+\)",
            first,
        )
        detail = poscones.acceptance.identity_positivity(0, 1.0).detail
        assert second.startswith("criterion 10  PASS  ") and second.endswith(
            f"s)  {detail}"
        )

    def test_a_raising_criterion_fails_and_the_rest_still_run(
        self, capsys, monkeypatch
    ):
        def broken(seed, scale):
            raise InternalInvariantViolation("broken on purpose")

        monkeypatch.setattr(
            poscones.acceptance, "CRITERIA",
            (broken, poscones.acceptance.identity_positivity),
        )
        assert main(["selftest", "--json"]) == 1
        first, second = json.loads(capsys.readouterr().out)["criteria"]
        assert not first["passed"] and second["passed"]
        assert re.fullmatch(
            r"raised InternalInvariantViolation: broken on purpose "
            r"\(in broken, line \d+\)",
            first["detail"],
        )


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "poscones.cli", "zoo"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == len(zoo_names())

    def test_import_leaves_the_acceptance_suite_unloaded(self):
        # selftest imports the acceptance suite, and with it the samplers,
        # when it runs; no other command pays for them
        code = "import sys, poscones.cli; print(sorted(sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        loaded = set(ast.literal_eval(proc.stdout))
        assert "poscones.cli" in loaded
        assert loaded.isdisjoint({"poscones.acceptance", "poscones.sampling"})

    def test_console_script(self):
        # Run the installed script when there is one; otherwise start the
        # entry point declared in [project.scripts] the way the generated
        # wrapper does, so the declaration is checked without an install.
        script = shutil.which("poscones")
        if script is not None:
            cmd = [script]
        else:
            tomllib = pytest.importorskip("tomllib")
            with open(PYPROJECT, "rb") as fh:
                target = tomllib.load(fh)["project"]["scripts"]["poscones"]
            module, func = target.split(":")
            cmd = [
                sys.executable,
                "-c",
                f"import sys; from {module} import {func}; "
                f"sys.argv[0] = 'poscones'; sys.exit({func}())",
            ]
        proc = subprocess.run(
            cmd + ["classify", "--zoo", "split-q-1", "--json"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)[0]["class"] == "rcf"
