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

from champbribe import CapExceededError, cli, milp, verify
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
