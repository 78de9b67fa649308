"""The public result, option and record types: their construction contract,
and a cold `import multires` that stays free of `dataclasses` and of the
theorem harness until it is asked for."""

import subprocess
import sys
from pathlib import Path

import pytest

from multires import (
    Bound,
    BoundReport,
    Certificate,
    CliqueGadget,
    DimensionResult,
    FamilySpec,
    InfiniteCertificate,
    SolverOptions,
    TheoremCheck,
    Variant,
    parse_family_spec,
)
from multires.generators import gen_complete
from multires.solver import INFINITE, SOLVER_CAP_DEFAULT
from multires.verify import InstanceCheck

SRC = Path(__file__).resolve().parent.parent / "src"

# (type, field names in order, one value per field)
RECORDS = [
    (Bound, ("value", "provenance"), (3, "clique_log")),
    (
        InfiniteCertificate,
        ("variant", "kind", "witness", "description"),
        (Variant.LMD, "triple_k_end", (1, 2, 3), "three K-end vertices"),
    ),
    (
        BoundReport,
        ("n", "lower", "upper", "certificates", "skipped"),
        (
            4,
            {Variant.MD: Bound(1, "trivial_1")},
            {Variant.MD: 3},
            (),
            ("chromatic_gdchi skipped",),
        ),
    ),
    (FamilySpec, ("tag", "numbers", "subs"), ("corona", (2, 2, 2), (FamilySpec("path", (3,)),))),
    (
        CliqueGadget,
        ("graph", "landmarks", "clique", "labels"),
        (gen_complete(2), (0,), (0, 1), {}),
    ),
    (SolverOptions, ("parallel_shards", "subset_budget", "cap"), (2, 1000, 12)),
    (
        DimensionResult,
        ("variant", "value", "witness", "subsets_checked", "certificate", "elapsed_ms"),
        (Variant.DIM, INFINITE, None, 7, "diam_le_2", 0),
    ),
    (Certificate, ("variant", "witness", "valid", "violating"), (Variant.MD, (0,), False, ((1, 2),))),
    (
        InstanceCheck,
        ("instance", "quantity", "expected", "computed", "ok", "note"),
        ("wheel:5", "lmd", 2, 3, False, "corrected: n = 5"),
    ),
    (TheoremCheck, ("theorem_id", "instances"), ("cycles", ())),
]


def _hashable(values):
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls,names,values", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_type_contract(cls, names, values):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert [getattr(by_position, n) for n in names] == list(values)
    assert by_keyword == by_position
    assert by_keyword != cls(*values[:-1], "another")
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(by_position) == f"{cls.__name__}({fields})"
    with pytest.raises(AttributeError):
        setattr(by_position, names[0], values[0])
    with pytest.raises(AttributeError):
        by_position.extra = 1
    if _hashable(values):
        assert hash(by_position) == hash(by_keyword)


def test_record_defaults_and_str():
    assert FamilySpec("cycle", (5,)).subs == ()
    assert FamilySpec("cycle").numbers == ()
    assert SolverOptions().cap == SOLVER_CAP_DEFAULT == 20
    assert SolverOptions() == SolverOptions(parallel_shards=1, subset_budget=None, cap=20)
    assert InstanceCheck("cycle:5", "md", 2, 2, True).note == ""
    for text in ("wheel:8", "corona:path:3/2,2,2", "join:cycle:5+path:2", "unicyclic:5/1,5"):
        assert str(parse_family_spec(text)) == text
    assert f"{FamilySpec('cycle', (5,))}" == "cycle:5"


def test_import_does_not_load_dataclasses():
    # -S: no site hook preloads anything, so this sees what multires imports
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import multires;"
        " print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_import_loads_the_harness_on_first_use():
    code = """
import sys
sys.path.insert(0, sys.argv[1])
import multires
harness = {"verify", "TheoremCheck", "closed_form", "corpus_scan", "run_all",
           "run_theorem", "wheel_path_structure"}
assert "multires.verify" not in sys.modules
assert harness <= set(dir(multires)), dir(multires)
assert "multires.verify" not in sys.modules
for name in multires.__all__:
    getattr(multires, name)
assert multires.verify is sys.modules["multires.verify"]
for name in harness - {"verify"}:
    assert vars(multires)[name] is getattr(multires.verify, name), name
assert not hasattr(multires, "no_such_name")
names = {}
exec("from multires import *", names)
assert set(multires.__all__) <= set(names), set(multires.__all__) - set(names)
"""
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
