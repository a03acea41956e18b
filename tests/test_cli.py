"""Command-line surface: exit codes, file formats, provenance headers."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from champbribe import BribePlan, CapExceededError, CbcctInstance, cli, evaluate_plan, milp, verify
from champbribe import InstanceError, solve_fpt_bribe_values
from champbribe.core import instance_to_dict
from champbribe.generators import gen_cbcct
from champbribe.rational import format_rational
from champbribe.cli import main
from champbribe.jsonio import dump_json, load_json, save_json

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture()
def cbcct_file(tmp_path):
    path = tmp_path / "inst.json"
    payload = {
        "players": [
            {"entries": [{"bribe": 0, "p": "1/2"}, {"bribe": 1, "p": "1"}]},
            {"entries": [{"bribe": 0, "p": "1/3"}, {"bribe": 2, "p": "2/3"}]},
        ],
        "budget": 1,
        "threshold": "1/3",
    }
    path.write_text(json.dumps(payload))
    return path


class TestSolve:
    def test_yes_exit_zero(self, cbcct_file, capsys):
        assert main(["solve", str(cbcct_file), "--algo", "dp"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "yes 1/3"
        assert "witness 2 1" in out
        assert "wall_ms" in out

    def test_no_exit_one(self, cbcct_file, tmp_path, capsys):
        data = json.loads(cbcct_file.read_text())
        data["budget"], data["threshold"] = 2, "1/2"
        path = tmp_path / "no.json"
        path.write_text(json.dumps(data))
        assert main(["solve", str(path), "--algo", "dp"]) == 1
        assert capsys.readouterr().out.splitlines()[0] == "no 1/3"

    def test_all_algorithms_agree(self, cbcct_file, capsys):
        lines = []
        for algo in ("brute", "dp", "fpt-bribes", "fpt-probs"):
            assert main(["solve", str(cbcct_file), "--algo", algo]) == 0
            lines.append(capsys.readouterr().out.splitlines()[0])
        assert set(lines) == {"yes 1/3"}

    def test_malformed_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", str(path), "--algo", "dp"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json"), "--algo", "dp"]) == 2

    @pytest.mark.parametrize(
        "players",
        [[{"entries": [{"bribe": 0}]}], [{"entries": "x"}], "x"],
        ids=["entry-without-p", "entries-not-a-list", "players-not-a-list"],
    )
    def test_malformed_record_exit_two(self, tmp_path, capsys, players):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"players": players, "budget": 0, "threshold": "0"}))
        assert main(["solve", str(path), "--algo", "dp"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "bad",
        [[{"bribe": 0}], [{"bribe": 0, "p": "1/2"}, 5], [{"bribe": [0], "p": "1/2"}], "x"],
        ids=["missing-field", "entry-not-an-object", "unhashable-bribe", "not-a-list"],
    )
    def test_malformed_after_a_valid_vector_exit_two(self, tmp_path, capsys, bad):
        # Equal entry lists share one decoded vector; a malformed list after
        # a valid one still gets the message it gets alone.
        errors = []
        for players in ([{"entries": bad}], [{"entries": [{"bribe": 0, "p": "1/2"}]}, {"entries": bad}]):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({"players": players, "budget": 0, "threshold": "0"}))
            assert main(["solve", str(path), "--algo", "fpt-bribes"]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and errors[0].startswith("error: ")

    def test_best_probability_over_the_digit_limit(self, tmp_path, capsys):
        # At n = 2*10**4 the optimum's denominator has far more digits than
        # Python writes as text; the answer still prints, with a marker.
        inst = gen_cbcct(
            9, 2 * 10**4, 4, 2 * 10**6, verify.SCALE_VALUE_POOL, verify.SCALE_PROB_POOL,
            canonical=True,
        )
        inst = CbcctInstance(inst.bribe_vectors, inst.budget, Fraction(1, 1000))
        path = tmp_path / "big.json"
        save_json(path, instance_to_dict(inst))
        assert main(["solve", str(path), "--algo", "fpt-bribes"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"no {cli.OVER_DIGIT_LIMIT}"
        plan = BribePlan(tuple(map(int, lines[1].split()[1:])))
        cost, prob = evaluate_plan(inst, plan)
        assert cost <= inst.budget and prob == solve_fpt_bribe_values(inst).best_probability
        with pytest.raises(CapExceededError):
            format_rational(prob)

    def test_too_long_integer_exit_two(self, tmp_path, capsys):
        # Python reads no integer of more than 4300 digits from text.
        path = tmp_path / "long.json"
        path.write_text('{"players": [], "budget": ' + "9" * 5000 + ', "threshold": "0"}')
        assert main(["solve", str(path), "--algo", "dp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_non_utf8_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["solve", str(path), "--algo", "dp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_unexpected_exception_exit_two(self, cbcct_file, monkeypatch, capsys):
        def broken(inst):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._CBCCT_ALGOS, "dp", broken)
        assert main(["solve", str(cbcct_file), "--algo", "dp"]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: RuntimeError: boom"

    def test_pivot_cap_exit_two(self, cbcct_file, monkeypatch, capsys):
        monkeypatch.setattr(milp, "PIVOT_CAP", 1)
        assert main(["solve", str(cbcct_file), "--algo", "fpt-probs"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
        assert "pivots" in captured.err

    def test_cup_brute(self, cbcct_file, tmp_path, capsys):
        cup_path = tmp_path / "cup.json"
        assert (
            main(
                ["reduce", str(cbcct_file), "--from", "cbcct", "--to", "cup", "-o", str(cup_path)]
            )
            == 0
        )
        assert main(["solve", str(cup_path), "--algo", "cup-brute"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "yes 1/3"


class TestReduce:
    def test_ksum_to_pkp_worked_example(self, tmp_path, capsys):
        src = tmp_path / "ks.json"
        src.write_text(json.dumps({"numbers": [-1, 1, 2], "k": 2}))
        out = tmp_path / "pkp.json"
        assert main(["reduce", str(src), "--from", "ksum", "--to", "pkp", "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("#")  # provenance header
        data = load_json(out)
        assert Fraction(data["items"][0]["profit"]) == Fraction(236196, 235954)
        assert data["capacity"] == 486

    def test_ksum_to_mpk_singletons(self, tmp_path):
        src = tmp_path / "ks.json"
        src.write_text(json.dumps({"numbers": [-1, 1, 2], "k": 2}))
        out = tmp_path / "mpk.json"
        assert main(["reduce", str(src), "--from", "ksum", "--to", "mpk", "-o", str(out)]) == 0
        data = load_json(out)
        assert len(data["classes"]) == 3
        assert all(len(c) == 2 for c in data["classes"])
        # Each class pairs the real item with a zero-weight skip item.
        for cls in data["classes"]:
            profits = [Fraction(data["items"][i]["profit"]) for i in cls]
            weights = [data["items"][i]["weight"] for i in cls]
            assert Fraction(1) in profits and 0 in weights

    SHIFT = "shift: s'_i = s_i + 2n^2k + n^(k^2), target T = k*shift"
    KSUM_PKP = "ksum->pkp: weight s'_i, profit (1 - s'_i/T^2)^-1, C=T"
    PKP_MPK = "pkp->mpk: singleton classes, each padded with a (0, 1) skip item"

    @pytest.mark.parametrize(
        "source, kinds, steps",
        [
            ({"numbers": [-1, 1, 2], "k": 2}, ("ksum", "mpk"), [SHIFT, KSUM_PKP, PKP_MPK]),
            (
                {"numbers": [242, 244, 245], "k": 2, "target": 486, "shifted": True},
                ("ksum", "mpk"),
                [KSUM_PKP, PKP_MPK],
            ),
            (
                {
                    "items": [{"weight": 1, "profit": "1/2"}, {"weight": 2, "profit": "1"}],
                    "capacity": 2,
                    "target": "1/2",
                },
                ("pkp", "cup"),
                [
                    PKP_MPK,
                    "mpk->cbcct: entries (w_j, v_j) per class, B=C, t=V",
                    "cbcct->cup: favorite at position 1, main player i at 2^(i-1)+1",
                ],
            ),
        ],
    )
    def test_provenance_header(self, tmp_path, capsys, source, kinds, steps):
        src_kind, dst_kind = kinds
        src = tmp_path / "src.json"
        src.write_text(json.dumps(source))
        expected = [f"# reduced from {src_kind} via champbribe"] + [f"# {s}" for s in steps]
        assert main(["reduce", str(src), "--from", src_kind, "--to", dst_kind]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[: len(expected)] == expected
        assert not printed[len(expected)].startswith("#")
        out = tmp_path / "out.json"
        assert main(["reduce", str(src), "--from", src_kind, "--to", dst_kind, "-o", str(out)]) == 0
        assert out.read_text().splitlines() == printed

    def test_huge_k_exits_two_promptly(self, tmp_path):
        # n^(2k) and n^(k^2) for this k have billions of digits; neither the
        # loader nor the shift may build them.
        src = tmp_path / "ks.json"
        src.write_text(json.dumps({"numbers": [1, 2, 3], "k": 1000000000}))
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "champbribe.cli", "reduce", str(src), "--from", "ksum",
             "--to", "pkp"],
            capture_output=True, text=True, timeout=10, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 2, proc.stderr
        assert "exceeds" in proc.stderr and "Traceback" not in proc.stderr

    def test_large_cup_image_exits_two_promptly(self, tmp_path):
        # A 17-challenger cup image would store over 5 * 10**9 pairwise
        # vectors; the reduction refuses it before building any.
        payload = {
            "players": [{"entries": [{"bribe": 0, "p": "1/2"}]}] * 17,
            "budget": 0,
            "threshold": "1/2",
        }
        src = tmp_path / "inst.json"
        src.write_text(json.dumps(payload))
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "champbribe.cli", "reduce", str(src), "--from", "cbcct",
             "--to", "cup"],
            capture_output=True, text=True, timeout=10, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 2, proc.stderr
        assert "pairwise vectors" in proc.stderr and "Traceback" not in proc.stderr
        assert time.perf_counter() - start < 5

    def test_too_long_result_exit_two(self, tmp_path, capsys):
        # The shift for n=3, k=100 has 4772 digits: within the shift cap, but
        # over Python's 4300-digit limit for writing an integer as text.
        src = tmp_path / "ks.json"
        src.write_text(json.dumps({"numbers": [0, 1, -1], "k": 100}))
        assert main(["reduce", str(src), "--from", "ksum", "--to", "pkp"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_invalid_direction(self, tmp_path, capsys):
        src = tmp_path / "x.json"
        src.write_text(json.dumps({"numbers": [0], "k": 1}))
        assert main(["reduce", str(src), "--from", "pkp", "--to", "ksum"]) == 2

    def test_mpk_to_cbcct_to_cup(self, tmp_path):
        mpk = {
            "items": [
                {"weight": 1, "profit": "1/2"},
                {"weight": 3, "profit": "3/4"},
                {"weight": 0, "profit": "1/3"},
                {"weight": 2, "profit": "2/3"},
            ],
            "classes": [[0, 1], [2, 3]],
            "capacity": 3,
            "target": "1/3",
        }
        src = tmp_path / "mpk.json"
        src.write_text(json.dumps(mpk))
        out = tmp_path / "cup.json"
        assert main(["reduce", str(src), "--from", "mpk", "--to", "cup", "-o", str(out)]) == 0
        data = load_json(out)
        assert data["players"] == 4


class TestGen:
    def test_deterministic_output_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert main(["gen", "cbcct", "--seed", "3", "--n", "4", "-o", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_families(self, tmp_path):
        for family, checks in [
            ("ksum", ("numbers", "k")),
            ("mpk", ("items", "classes")),
            ("pkp", ("items", "capacity")),
            ("cup", ("players", "pairwise")),
        ]:
            path = tmp_path / f"{family}.json"
            assert main(["gen", family, "--seed", "1", "-o", str(path)]) == 0
            data = load_json(path)
            assert all(key in data for key in checks)

    def test_huge_ksum_bound_exits_two_promptly(self, tmp_path):
        # The default magnitude n^2k has billions of digits and is refused
        # unbuilt; an explicit small magnitude at the same k still generates.
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        gen = [sys.executable, "-m", "champbribe.cli", "gen", "ksum", "--seed", "1", "--n", "3",
               "--k", "1000000000"]
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(gen, capture_output=True, text=True, timeout=10, env=env)
        assert proc.returncode == 2, proc.stderr
        assert "exceeds" in proc.stderr and "Traceback" not in proc.stderr
        out = tmp_path / "ks.json"
        proc = subprocess.run(gen + ["--magnitude", "5", "-o", str(out)], capture_output=True,
                              text=True, timeout=10, env=env)
        assert proc.returncode == 0, proc.stderr
        data = load_json(out)
        assert data["k"] == 10**9 and all(abs(s) <= 5 for s in data["numbers"])

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["gen", "cbcct", "--n", "-1"], "n"),
            (["gen", "pkp", "--n", "-2"], "n"),
            (["gen", "ksum", "--n", "-1"], "n"),
            (["bench", "--n", "-1"], "n"),
            (["gen", "cbcct", "--lmax", "0"], "lmax"),
            (["gen", "cup", "--lmax", "0"], "lmax"),
            (["gen", "mpk", "--class-sizes", "0"], "class size"),
            (["gen", "mpk", "--class-sizes", "2,-1"], "class size"),
            (["gen", "cup", "--rounds", "-1"], "rounds"),
        ],
    )
    def test_bad_size_exit_two(self, argv, field, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} must be an integer >= ")
        assert "Traceback" not in captured.err

    def test_cup_pair_cap_exits_two_promptly(self, capsys):
        # 40 rounds would need C(2**40, 2) pairwise vectors; none is drawn.
        start = time.perf_counter()
        assert main(["gen", "cup", "--rounds", "40"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "pairwise vectors" in err

    @pytest.mark.parametrize(
        "argv", [["cbcct", "--value-pool", "x"], ["mpk", "--class-sizes", "1,x"]]
    )
    def test_malformed_list_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen"] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid" in err and "Traceback" not in err


class TestVerify:
    def test_pass_line(self, capsys):
        assert main(["verify", "--suite", "lp-unit"]) == 0
        out = capsys.readouterr().out
        assert "lp-unit:" in out and "[pass]" in out

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "nonsense"]) == 2

    def test_count_flag(self, capsys):
        assert main(["verify", "--suite", "mpk-chain", "--count", "10", "--seed", "4"]) == 0
        assert "10/10 pass" in capsys.readouterr().out

    def test_negative_count_exit_two(self, capsys):
        assert main(["verify", "--suite", "normalization", "--count", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --count must be")

    def test_flags_follow_suite_signature(self, monkeypatch, capsys):
        seen = {}

        @verify._timed
        def seeded(count=1, seed=0):
            seen["seeded"] = (count, seed)
            return verify.SuiteReport("seeded", total=count)

        @verify._timed
        def exhaustive(n_max=2):
            seen["exhaustive"] = n_max
            return verify.SuiteReport("exhaustive", total=1)

        monkeypatch.setattr(verify, "SUITES", {"seeded": seeded, "exhaustive": exhaustive})
        assert main(["verify", "--count", "3", "--seed", "9"]) == 0
        assert seen == {"seeded": (3, 9), "exhaustive": 2}

    def test_details_line(self, monkeypatch, capsys):
        @verify._timed
        def counted():
            report = verify.SuiteReport("counted", total=2)
            report.details.update(yes=1, statuses={"optimal": 2}, notes=["a", "b", "c"])
            report.fail(1, "instance 1: wrong")
            return report

        monkeypatch.setattr(verify, "SUITES", {"counted": counted})
        assert main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("counted: 1/2 pass [FAIL]")
        assert lines[1:] == [
            "  details: yes=1, statuses={'optimal': 2}, notes=3",
            "  instance 1: wrong",
        ]

    def test_cap_error_fails_its_instance(self, monkeypatch, capsys):
        # A refusal inside one instance is that instance's failure line; the
        # suite goes on and returns its report.
        monkeypatch.setattr(milp, "PIVOT_CAP", 5)
        reports = [
            verify.suite_solver_agreement(count=10),
            verify.suite_value_agreement(count=2),
            verify.suite_milp_integrality(count=10),
            verify.suite_lp_unit(draws=0),
        ]
        for report in reports:
            capped = [f for f in report.failures if "CapExceededError" in f]
            assert capped and not report.passed, report.name
            for line in capped:
                label, kind, message = line.split(": ")
                assert label.startswith(("instance ", "build ", "seeded model "))
                assert kind == "CapExceededError"
                assert message == "the exact solve needs more than 5 simplex pivots"
            assert report.pass_count == report.total - len(report.failed)
        assert [r.pass_count for r in reports] == [4, 0, 3, 191]
        assert main(["verify", "--suite", "solver-agreement", "--count", "10"]) == 1
        out = capsys.readouterr().out
        assert "solver-agreement: 4/10 pass [FAIL]" in out
        assert "  instance 0 (n=2, B=6): CapExceededError: " in out


class TestBench:
    def test_csv_schema(self, capsys):
        assert (
            main(
                [
                    "bench",
                    "--algo",
                    "dp,brute",
                    "--n",
                    "3,5",
                    "--budget",
                    "8",
                    "--lmax",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["algo", "n", "B", "v_#", "p_#", "wall_ms", "decision"]
        assert len(rows) == 1 + 2 * 2  # two algos, two sizes, one budget
        for row in rows[1:]:
            assert row[6] in ("yes", "no")
            assert float(row[5]) >= 0

    @pytest.mark.parametrize("argv", [["--n", "x"], ["--algo", "dp,foo"]])
    def test_malformed_list_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"] + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err


class TestJsonIo:
    def test_provenance_roundtrip(self, tmp_path):
        path = tmp_path / "x.json"
        save_json(path, {"a": 1}, ["first line", "second line"])
        text = path.read_text()
        assert text.startswith("# first line\n# second line\n")
        assert load_json(path) == {"a": 1}

    @pytest.mark.parametrize(
        "text",
        [
            '# first\r\n# second\r\n{"a": 1}\r\n',
            '\n   \n  # indented\n\t# tabbed\n\n{"a": 1}\n',
            '# lone carriage returns\r{"a": 1}',
        ],
    )
    def test_header_lines_skipped(self, tmp_path, text):
        path = tmp_path / "x.json"
        path.write_bytes(text.encode())
        assert load_json(path) == {"a": 1}

    @pytest.mark.parametrize("text", ["", "\n\n", "# only a header\n\n  # and more\n"])
    def test_no_body_refused(self, tmp_path, text):
        path = tmp_path / "x.json"
        path.write_bytes(text.encode())
        with pytest.raises(InstanceError, match="no JSON body found"):
            load_json(path)

    def test_error_positions_count_from_the_body(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_bytes(b'# header\n{"a":\n')
        with pytest.raises(InstanceError, match=r"line 1 column 6 \(char 5\)"):
            load_json(path)

    def test_line_separator_is_left_to_json(self, tmp_path):
        # U+2028 is no JSON whitespace, but a string may hold it.
        path = tmp_path / "x.json"
        path.write_bytes('{"a":  1}\n'.encode())
        with pytest.raises(InstanceError, match="invalid JSON"):
            load_json(path)
        path.write_bytes('# header\n{"a": "x y"}\n'.encode())
        assert load_json(path) == {"a": "x y"}

    def test_too_long_integer_refused(self, tmp_path):
        with pytest.raises(CapExceededError):
            dump_json({"a": 10**5000})
        path = tmp_path / "x.json"
        with pytest.raises(CapExceededError):
            save_json(path, {"a": 10**5000})
        assert not path.exists()


def test_import_loads_only_the_standard_library():
    # A fresh interpreter, since this one may have loaded either module already.
    code = (
        "import sys, champbribe, champbribe.cli\n"
        "print(sorted({'numpy', 'gmpy2'} & {name.partition('.')[0] for name in sys.modules}))"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
