"""What importing causetkit loads, and the names it binds.

The package loads each submodule on first use of one of its names, and the
CLI imports a submodule only inside the commands that run it.  Every
amplitude is computed in Python complex numbers, so only the array accessors
`PropagatorPair.P`, `.Q` and `Spinor.as_array` import numpy: no command loads
it, and with numpy unimportable every command and helper but those runs.
`--help` loads no submodule but `errors`; `validate` and `quantify` add only
`poset`, and `checkerboard` only `checkerboard`, in every method and format,
and `_forked` past the fork bound.
None of them loads `dataclasses`, and only `quantify` loads `fractions` and
`decimal`; `particle` loads `kinematics`, `exact` and all three.
`unordered_amplitude` loads `kinematics` when it is called.  The public API
stays what it was when `__init__.py` imported every submodule eagerly.
Import state is per process, so each question is asked of one fresh
interpreter, and no question of two.
"""

import json
import re
from pathlib import Path

import pytest

import causetkit
from conftest import run_python

README = Path(__file__).resolve().parents[1] / "README.md"

# every public name the package bound when it imported checkerboard eagerly
PUBLIC_NAMES = [
    "ANTICHAIN_LIKE", "Amplitude", "BoundaryError", "CHAIN_LIKE", "CapExceededError",
    "CausalPoset", "CausetkitError", "ChainValuation", "CheckerboardField",
    "ConstraintReport", "CoordinationUndecidableError", "CycleError",
    "DEFAULT_ENUMERATION_CAP", "DerivedWeighting", "FeynmanWeighting",
    "InfluenceSequence", "IntervalPair", "IntervalScalar", "KernelColumns",
    "KinematicState", "LinearRelation", "MODE_COORDINATED", "MODE_SINGLE_CHAIN",
    "PROJECTION_LIKE", "P_MOVE", "PathWeight", "PosetStructureError", "Projection",
    "PropagatorPair", "Q_MOVE", "SchemaError", "SpacetimeInterval", "SpacetimePath",
    "Spinor", "Surd", "UnknownEventError", "UnorderedInfluenceCount",
    "UnquantifiableIntervalError", "ValidationReport", "Violation", "amp_add",
    "amp_mul", "backward_project", "born", "build_poset", "causal_leq", "chain_length",
    "check_coordination", "checkerboard", "collapse", "count_orderings", "decompose",
    "distance", "dual", "enumerate_orderings", "errors", "exact", "expand_sequence",
    "forward_project", "from_spacetime", "interval_pair", "interval_scalar", "kernel",
    "kernel_discrepancy", "kernel_history", "kernel_matrix", "kernel_pathsum",
    "kinematic_state", "kinematics", "length", "load_poset", "lorentz_transform",
    "make_propagators", "measurement_amplitude", "metric_scalar", "pair_transform",
    "parallel_join", "path_rows", "path_weight", "poset", "propagators_from_mass",
    "propagators_from_theta", "quantification_rows", "quantify", "random_sequence",
    "rates", "reversal_count", "save_poset", "sequence_amplitude", "sequence_to_path",
    "series_join", "sqrt_exact", "step_field", "to_spacetime", "topological_order",
    "transform_energy_momentum", "transform_rates", "transition_magnitude_solutions",
    "unordered_amplitude", "validate", "verify_propagator_constraints",
    "zero_momentum_propagators",
]

# runs cli.main on each argv in sys.argv[1] (a JSON list), stdout discarded,
# and keeps their exit codes in `codes`
ARGV_LOOP = """
import contextlib, io, json, sys
from causetkit.cli import main

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
"""

# ARGV_LOOP, then prints the exit codes, the causetkit submodules the process
# has loaded and whether it has loaded numpy, dataclasses, decimal and fractions
CLI_SCRIPT = ARGV_LOOP + """
loaded = sorted(name for name in sys.modules if name.startswith("causetkit."))
stdlib = {name: name in sys.modules for name in ("numpy", "dataclasses", "decimal", "fractions")}
print(json.dumps({"codes": codes, "loaded": loaded, **stdlib}))
"""


# the amplitude helpers and kernels, run with numpy and without it
HELPERS = """
from causetkit import *

pp = make_propagators(0.6, 0.8, 0.3, 1.1)
initial = Spinor(complex(0.6, 0.1), complex(0.2, -0.77))
helpers = [
    verify_propagator_constraints(pp),
    sequence_amplitude(InfluenceSequence.from_string("PQQPQ"), pp, initial),
    unordered_amplitude(UnorderedInfluenceCount(3, 2), pp, initial),
    kernel_matrix(7, pp, "Q"),
    kernel_pathsum(7, pp, "Q"),
    kernel(5, pp, "P", method="pathsum"),
    kernel_history(3, pp, "P"),
]
"""

# blocks numpy, then runs ARGV_LOOP, HELPERS and the array accessors; prints
# the exit codes, the reprs of the helpers' results and whether each accessor
# raised ImportError
NO_NUMPY_SCRIPT = """
import sys
sys.modules["numpy"] = None  # import numpy now raises ImportError
""" + ARGV_LOOP + HELPERS + """
import_errors = []
for accessor in (lambda: pp.P, lambda: pp.Q, initial.as_array):
    try:
        accessor()
        import_errors.append(False)
    except ImportError:
        import_errors.append(True)
print(json.dumps({"codes": codes, "helpers": list(map(repr, helpers)), "import_errors": import_errors}))
"""

SUBMODULES = ["checkerboard", "errors", "exact", "kinematics", "poset", "quantify"]


def probe(argvs):
    """CLI_SCRIPT's report on the argvs, all run in one fresh interpreter."""
    return json.loads(run_python("-c", CLI_SCRIPT, json.dumps(argvs)).stdout)


class TestNumpyStaysOut:
    def test_other_commands_skip_numpy(self, ladder_file):
        argvs = [
            ["--help"],
            ["validate", ladder_file],
            ["validate", ladder_file, "--emit", "json"],
            ["quantify", ladder_file, "--chain", "P"],
            ["quantify", ladder_file, "--chain", "P", "--emit", "json"],
            ["quantify", ladder_file, "--chain", "P", "--chain2", "Q"],
            ["quantify", ladder_file, "--chain", "P", "--chain2", "Q", "--emit", "json"],
            ["particle", "--counts", "3,2", "--dp", "5", "--dq", "2", "--events", "10"],
            ["particle", "--random", "64", "0.5", "12345"],
            ["particle", "--sequence", "PPQPQ", "--emit", "csv"],
            ["checkerboard", "--help"],
        ]
        report = probe(argvs)
        assert (report["codes"], report["numpy"]) == ([0] * len(argvs), False)

    def test_matrix_method_skips_numpy(self, tmp_path):
        argvs = [
            ["checkerboard", "--steps", "6", "--emit", emit, *flags]
            for emit in ("csv", "json", "svg")
            for flags in ([], ["--theta", "0.4", "--initial", "Q"], ["--mass", "0.3"])
        ] + [["checkerboard", "--steps", "6", "--emit", "svg", "--outdir", str(tmp_path)]]
        report = probe(argvs)
        assert (report["codes"], report["numpy"]) == ([0] * len(argvs), False)


class TestWithoutNumpy:
    def test_everything_but_the_array_accessors_runs(self, ladder_file, tmp_path):
        argvs = [
            ["--help"],
            ["validate", ladder_file, "--emit", "json"],
            ["quantify", ladder_file, "--chain", "P", "--chain2", "Q"],
            ["quantify", ladder_file, "--chain", "P", "--emit", "json"],
            ["particle", "--counts", "3,2", "--dp", "5", "--dq", "2", "--events", "10"],
            ["particle", "--sequence", "PPQPQ", "--emit", "csv"],
            ["particle", "--random", "64", "0.5", "12345", "--outdir", str(tmp_path / "p")],
        ] + [
            ["checkerboard", "--steps", "6", "--method", method, "--emit", emit, "--mass", "0.3"]
            for method in ("matrix", "pathsum", "both")
            for emit in ("csv", "json", "svg")
        ] + [["checkerboard", "--steps", "6", "--emit", "svg", "--outdir", str(tmp_path / "c")]]
        got = json.loads(run_python("-c", NO_NUMPY_SCRIPT, json.dumps(argvs)).stdout)
        with_numpy: dict = {}  # the same helpers in this process, which has numpy
        exec(HELPERS, with_numpy)
        assert got == {
            "codes": [0] * len(argvs),
            "helpers": list(map(repr, with_numpy["helpers"])),
            "import_errors": [True] * 3,
        }


class TestLoadPerCommand:
    """Each command loads only the submodules it runs."""

    BASE = ["causetkit.cli", "causetkit.errors"]

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["validate", "LADDER"],
        ["validate", "LADDER", "--emit", "json"],
        ["quantify", "LADDER", "--chain", "P"],
        ["quantify", "LADDER", "--chain", "P", "--chain2", "Q", "--emit", "json"],
    ], ids=" ".join)
    def test_skips_quantify_and_kinematics(self, ladder_file, argv):
        # --help loads no submodule but errors, validate and quantify add poset,
        # and none of them loads dataclasses; quantify reads --mu as a Fraction,
        # and fractions imports decimal
        expected = self.BASE if argv == ["--help"] else [*self.BASE, "causetkit.poset"]
        rational = argv[0] == "quantify"
        argv = [ladder_file if token == "LADDER" else token for token in argv]
        assert probe([argv]) == {
            "codes": [0], "loaded": expected, "numpy": False,
            "dataclasses": False, "decimal": rational, "fractions": rational,
        }

    def test_particle_skips_quantify(self):
        got = probe([["particle", "--counts", "3,2", "--dp", "5", "--dq", "2"]])
        expected = [*self.BASE, "causetkit.exact", "causetkit.kinematics"]
        assert got == {
            "codes": [0], "loaded": sorted(expected), "numpy": False,
            "dataclasses": True, "decimal": True, "fractions": True,
        }

    def test_checkerboard_skips_quantify(self):
        # and kinematics and exact too.  Every method and format loads cli,
        # errors and checkerboard, so the one process loads exactly those, and
        # none of numpy, dataclasses, decimal or fractions, exactly when each
        # command does
        argvs = [["checkerboard", "--steps", "6", "--method", method, "--emit", emit]
                 for method in ("matrix", "pathsum", "both") for emit in ("csv", "json", "svg")]
        assert probe(argvs) == {
            "codes": [0] * len(argvs),
            "loaded": sorted([*self.BASE, "causetkit.checkerboard"]),
            "numpy": False, "dataclasses": False, "decimal": False, "fractions": False,
        }

    def test_forked_checkerboard_loads_as_much_and_leaves_no_child(self):
        # past the fork row bound a child process formats the odd time slices:
        # the command loads what it loads at 6 steps and the two-process map,
        # no numpy, and reaps the child
        script = CLI_SCRIPT + (
            "import os\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child left')\n"
        )
        argvs = [["checkerboard", "--steps", "200", "--emit", "json"]]
        loaded, *rest = run_python("-c", script, json.dumps(argvs)).stdout.splitlines()
        assert json.loads(loaded) == {
            "codes": [0],
            "loaded": sorted([*self.BASE, "causetkit._forked", "causetkit.checkerboard"]),
            "numpy": False, "dataclasses": False, "decimal": False, "fractions": False,
        }
        assert rest == ["no child left"]

    def test_unordered_amplitude_loads_kinematics_when_called(self):
        # counts as a plain tuple, so that only the call can load kinematics
        script = (
            "import sys\n"
            "from causetkit import checkerboard as cb\n"
            "pp = cb.make_propagators(0.6, 0.8, 0.3, 1.1)\n"
            "k = cb.kernel_pathsum(5, pp, 'P')\n"
            "before = 'causetkit.kinematics' in sys.modules\n"
            "out = cb.unordered_amplitude((3, 2), pp, cb.Spinor(1 + 0j, 0j))\n"
            "print(before, 'causetkit.kinematics' in sys.modules)\n"
            "print((out.phi_p, out.phi_q) == (k[1, 'P'], k[1, 'Q']))\n"
        )
        assert run_python("-c", script).stdout == "False True\nTrue\n"

    def test_importing_the_package_loads_no_submodule(self):
        script = (
            "import sys, causetkit\n"
            "print([m for m in sys.modules if 'causetkit.' in m], 'numpy' in sys.modules)"
        )
        assert run_python("-c", script).stdout == "[] False\n"


class TestCanonicalJson:
    def test_surd_and_unserialisable_values_in_a_fresh_process(self):
        # no command writes a Surd, so it is rejected like any other type, and
        # serialising never loads exact; quantify's Fraction --mu is written
        script = (
            "import json, sys\n"
            "from fractions import Fraction\n"
            "from causetkit.cli import canonical_json\n"
            "print(canonical_json({'mu': Fraction(3, 7), 'ok': True}))\n"
            "errors = []\n"
            "def reject(bad):\n"
            "    try:\n"
            "        canonical_json({'a': [bad]})\n"
            "    except TypeError as exc:\n"
            "        errors.append(str(exc))\n"
            "reject(1j)\n"
            "reject(object())\n"
            "print('causetkit.exact' in sys.modules)\n"
            "from causetkit.exact import sqrt_exact\n"
            "reject(sqrt_exact(8))\n"
            "print(json.dumps(errors))\n"
        )
        assert run_python("-c", script).stdout.splitlines() == [
            '{"mu": 0.42857142857142855, "ok": true}',
            "False",
            '["cannot serialize complex", "cannot serialize object", "cannot serialize Surd"]',
        ]


class TestPublicApi:
    def test_every_name_is_an_attribute(self):
        assert [name for name in PUBLIC_NAMES if not hasattr(causetkit, name)] == []
        assert set(PUBLIC_NAMES) <= set(dir(causetkit))

    def test_star_import_binds_the_same_names(self):
        script = (
            "import json\n"
            "from causetkit import *\n"
            "print(json.dumps(sorted(n for n in globals() if not n.startswith('_'))))"
        )
        assert json.loads(run_python("-c", script).stdout) == sorted(["json", *PUBLIC_NAMES])

    def test_checkerboard_attribute_is_the_module(self):
        script = (
            "import sys, causetkit\n"
            "print(causetkit.checkerboard is sys.modules['causetkit.checkerboard'])"
        )
        assert run_python("-c", script).stdout == "True\n"

    @pytest.mark.parametrize("name", sorted(set(SUBMODULES) - {"checkerboard"}))
    def test_other_submodule_attributes_are_the_modules(self, name):
        script = (
            f"import sys, causetkit\n"
            f"print(causetkit.{name} is sys.modules['causetkit.{name}'])"
        )
        assert run_python("-c", script).stdout == "True\n"

    def test_every_name_is_its_submodule_attribute(self):
        import importlib

        for module_name in SUBMODULES:
            module = importlib.import_module(f"causetkit.{module_name}")
            names = [name for name in PUBLIC_NAMES if hasattr(module, name)]
            assert all(getattr(causetkit, name) is getattr(module, name) for name in names)

    def test_lazy_name_is_the_module_attribute(self):
        from causetkit import checkerboard

        assert causetkit.kernel_history is checkerboard.kernel_history
        assert causetkit.KernelColumns is checkerboard.KernelColumns

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            causetkit.no_such_name
        with pytest.raises(ImportError):
            from causetkit import no_such_name  # noqa: F401

    def test_readme_quick_start_runs(self):
        text = README.read_text(encoding="utf-8")
        section = text.split("## Library quick start", 1)[1]
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        run_python("-c", code)
