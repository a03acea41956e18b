"""What `import champbribe` loads, and that every public name still resolves.

The cup, knapsack and reduction names resolve on first use, and the CLI
imports what each command needs, so a solve never loads the reduction
chain.  Each check runs in a fresh interpreter, since this one has loaded
every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from champbribe import generators
from champbribe.cup import cup_to_dict
from champbribe.jsonio import save_json

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

# The modules only the reduction chain and the suites use.
CHAIN_MODULES = ["champbribe.cup", "champbribe.knapsack", "champbribe.reductions",
                 "champbribe.verify", "champbribe.generators"]

# Every name `import champbribe` bound when it loaded every submodule at once,
# plus `pkp_to_mpk`, by the submodule that defines it.
PUBLIC_NAMES = {
    "core": ["BribeEntry", "BribePlan", "BribeVector", "CbcctInstance", "evaluate_plan",
             "instance_from_dict", "instance_to_dict", "normalize_bribe_vector",
             "normalize_instance"],
    "cup": ["CupInstance", "cup_win_probability", "solve_cup_bruteforce"],
    "errors": ["CapExceededError", "ChampBribeError", "InstanceError", "ModelError",
               "PlanError", "ReductionError", "SolverError"],
    "knapsack": ["MpkInstance", "PkpInstance", "PkpItem", "SmallKSumInstance",
                 "solve_mpk_bruteforce", "solve_pkp_bruteforce", "solve_pkp_dp",
                 "solve_small_ksum_bruteforce"],
    "milp": ["FormalLog", "LogSum", "MilpModel", "MilpObjective", "MilpRow", "MilpSolution",
             "MilpVariable", "integralize_solution", "integrality_defect", "solve_lp_exact",
             "solve_milp"],
    "rational": ["Rational", "format_rational", "parse_rational"],
    "reductions": ["cbcct_to_cup", "ksum_to_pkp", "mpk_to_cbcct", "pkp_to_mpk", "shift_ksum"],
    "solvers": ["SolveResult", "build_bribe_value_milp", "build_prob_value_milp",
                "solve_bruteforce", "solve_dp", "solve_fpt_bribe_values", "solve_fpt_prob_values"],
}
SUBMODULES = ["_dpkernel_py", "core", "cup", "dp", "errors", "knapsack", "milp", "rational",
              "reductions", "solvers"]

PAYLOAD = {
    "players": [
        {"entries": [{"bribe": 0, "p": "1/2"}, {"bribe": 1, "p": "1"}]},
        {"entries": [{"bribe": 0, "p": "1/3"}, {"bribe": 2, "p": "2/3"}]},
    ],
    "budget": 1,
    "threshold": "1/3",
}


def _fresh(code: str, *args: str):
    """Run `code` in a new interpreter on this tree's package; the JSON it prints last."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "print(json.dumps([m for m in {chain} if m in sys.modules]))".format(chain=CHAIN_MODULES)


def test_solving_on_every_route_loads_no_chain_module():
    code = (
        "import json, sys, champbribe\n"
        "inst = champbribe.instance_from_dict(json.loads(sys.argv[1]))\n"
        "for solve in (champbribe.solve_bruteforce, champbribe.solve_dp,\n"
        "              champbribe.solve_fpt_bribe_values, champbribe.solve_fpt_prob_values):\n"
        "    assert solve(inst).decision\n" + LOADED
    )
    assert _fresh(code, json.dumps(PAYLOAD)) == []


@pytest.mark.parametrize("algo", ["brute", "dp", "fpt-bribes", "fpt-probs"])
def test_cli_solve_loads_no_chain_module(tmp_path, algo):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(PAYLOAD))
    code = (
        "import json, sys\n"
        "from champbribe import cli\n"
        "assert cli.main(['solve', sys.argv[1], '--algo', sys.argv[2]]) == 0\n" + LOADED
    )
    assert _fresh(code, str(path), algo) == []


def test_cli_cup_solve_loads_only_the_cup_module(tmp_path):
    path = tmp_path / "cup.json"
    save_json(path, cup_to_dict(generators.gen_cup(0, 2, 3)))
    code = (
        "import json, sys\n"
        "from champbribe import cli\n"
        "assert cli.main(['solve', sys.argv[1], '--algo', 'cup-brute']) in (0, 1)\n" + LOADED
    )
    assert _fresh(code, str(path)) == ["champbribe.cup"]


def test_every_public_name_resolves_to_its_submodules_object():
    code = (
        "import json, sys, champbribe\n"
        "names, submodules = json.loads(sys.argv[1]), json.loads(sys.argv[2])\n"
        "wrong = [name for module, found in names.items() for name in found\n"
        "         if getattr(champbribe, name) is not getattr(sys.modules['champbribe.' + module], name)]\n"
        "wrong += [m for m in submodules if getattr(champbribe, m) is not sys.modules['champbribe.' + m]]\n"
        "print(json.dumps(wrong))"
    )
    assert _fresh(code, json.dumps(PUBLIC_NAMES), json.dumps(SUBMODULES)) == []


def test_dir_and_star_import_list_every_public_name():
    code = (
        "import json, champbribe\n"
        "listed = dir(champbribe)\n"
        "bound = {}\n"
        "exec('from champbribe import *', bound)\n"
        "print(json.dumps([listed, sorted(k for k in bound if k != '__builtins__'),\n"
        "                  [k for k in bound if k != '__builtins__' and bound[k] is not getattr(champbribe, k)]]))"
    )
    listed, bound, not_same = _fresh(code)
    names = {name for found in PUBLIC_NAMES.values() for name in found}
    assert names | set(SUBMODULES) | {"__version__"} <= set(listed)
    assert names | {m for m in SUBMODULES if not m.startswith("_")} <= set(bound)
    assert not_same == []


def test_unknown_names_raise_and_import_nothing():
    # The benchmark's tracer probes every hooked name on every champbribe
    # module with getattr(module, name, None) before it patches.
    code = (
        "import importlib.util, json, sys, champbribe\n"
        "before = sorted(sys.modules)\n"
        "try:\n"
        "    champbribe.no_such_name\n"
        "except AttributeError as exc:\n"
        "    raised = str(exc)\n"
        "spec = importlib.util.spec_from_file_location('tracing', sys.argv[1])\n"
        "tracing = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracing)\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "tracer.uninstall()\n"
        "new = sorted(m for m in set(sys.modules) - set(before) if m.startswith('champbribe'))\n"
        "print(json.dumps([raised, new, tracer.missing]))"
    )
    raised, new, missing = _fresh(code, str(ROOT / "perfbench" / "tracing.py"))
    assert raised == "module 'champbribe' has no attribute 'no_such_name'"
    assert new == []
    assert missing == {}


def test_every_module_loads_only_the_standard_library():
    # Imports each module by name, so the modules `import champbribe` leaves
    # out are covered too.
    code = (
        "import json, pkgutil, sys, champbribe\n"
        "for info in pkgutil.iter_modules(champbribe.__path__, 'champbribe.'):\n"
        "    __import__(info.name)\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('champbribe.')),\n"
        "                  sorted({'numpy', 'gmpy2'} & {m.partition('.')[0] for m in sys.modules})]))"
    )
    loaded, third_party = _fresh(code)
    assert set(CHAIN_MODULES) | {"champbribe.cli", "champbribe.jsonio"} <= set(loaded)
    assert third_party == []
