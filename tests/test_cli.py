import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dustgaps
from dustgaps import cli, metgaps, model

CANTOR = str(dustgaps.fixture_path("cantor"))
MIXED = str(dustgaps.fixture_path("mixed"))
ITER2 = str(dustgaps.fixture_path("iterate2-cantor"))
OVERLAP3 = str(dustgaps.fixture_path("overlap3"))
GD2 = str(dustgaps.fixture_path("gd2"))


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_validate_fixtures_clean(capsys):
    for path in (CANTOR, MIXED, ITER2, GD2):
        code, doc = run_json(capsys, "validate", path)
        assert code == 0
        assert doc["result"]["valid"] is True
        assert doc["result"]["findings"] == []
    code, doc = run_json(capsys, "validate", GD2)
    assert doc["result"]["separation"] == "hull_disjoint"
    assert doc["result"]["vertices"] == ["u", "v"]


def test_validate_overlap_is_structurally_fine(capsys):
    code, doc = run_json(capsys, "validate", OVERLAP3)
    assert code == 0
    assert doc["result"]["valid"] is True
    assert doc["result"]["separation"] == "overlap"


def test_validate_single_map(capsys, tmp_path):
    p = tmp_path / "one.json"
    p.write_text(json.dumps({"ifs": [{"ratio": "1/3", "offset": "0"}]}))
    code, doc = run_json(capsys, "validate", str(p))
    assert code == 2
    assert doc["result"]["valid"] is False
    assert any("d_u = 1 < 2" in f["message"] for f in doc["result"]["findings"])


def test_validate_missing_file(capsys):
    code, doc = run_json(capsys, "validate", "/no/such/file.json")
    assert code == 2
    assert doc["result"]["error"]["kind"] in ("FileNotFoundError", "OSError")


def test_envelope_shape_and_determinism(capsys):
    code, first = run(capsys, "gaps", CANTOR, "--exact", "--cutoff", "1/100")
    assert code == 0
    code, second = run(capsys, "gaps", CANTOR, "--exact", "--cutoff", "1/100")
    assert first == second
    doc = json.loads(first)
    assert doc["tool"] == "dustgaps"
    assert doc["version"] == dustgaps.__version__
    assert doc["command"] == "gaps"
    assert doc["parameters"]["cutoff"] == "1/100"
    assert "claim" not in doc
    # keys are emitted sorted, so the serialization is canonical
    assert first == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_gaps_exact_csv(capsys):
    code, out = run(
        capsys, "gaps", CANTOR, "--exact", "--cutoff", "1/100", "--format", "csv"
    )
    assert code == 0
    assert out == "1/3\n1/9\n1/27\n1/81\n"


def test_gaps_exact_mixed_values(capsys):
    code, doc = run_json(capsys, "gaps", MIXED, "--exact", "--cutoff", "1/40")
    assert code == 0
    assert doc["result"]["values"] == ["1/6", "1/12", "1/18", "1/24", "1/36"]
    assert doc["result"]["separation"] == "hull_disjoint"


def test_gaps_exact_needs_cutoff(capsys):
    code, doc = run_json(capsys, "gaps", CANTOR, "--exact")
    assert code == 2
    assert doc["result"]["error"]["kind"] == "ValueError"


def test_gaps_exact_refuses_overlap(capsys):
    code, doc = run_json(capsys, "gaps", OVERLAP3, "--exact", "--cutoff", "1/10")
    assert code == 2
    assert doc["result"]["error"]["kind"] == "UnsupportedInstanceError"


def test_gaps_metric_from_instance(capsys):
    code, doc = run_json(
        capsys, "gaps", MIXED, "--metric", "--noise-floor", "1/100", "--depth", "10"
    )
    assert code == 0
    res = doc["result"]
    assert res["cloud"]["exact"] is True
    assert res["cloud"]["resolution"] == "1/1024"
    # midpoint sampling shifts each height by at most the resolution
    from fractions import Fraction

    top = Fraction(res["values"][0])
    assert abs(top - Fraction(1, 6)) <= 2 * Fraction(1, 1024)


def test_kappa_cloud_deltas(capsys, tmp_path):
    p = tmp_path / "cloud.csv"
    p.write_text("0\n1/10\n1/2\n6/10\n")
    code, doc = run_json(
        capsys, "kappa", "--cloud", str(p), "--delta", "1/10", "--delta", "1/20"
    )
    assert code == 0
    assert doc["result"]["kappa"] == [
        {"delta": "1/10", "kappa": 2},
        {"delta": "1/20", "kappa": 4},
    ]
    code, out = run(
        capsys,
        "kappa",
        "--cloud",
        str(p),
        "--delta",
        "1/10",
        "--format",
        "csv",
    )
    assert code == 0
    assert out == "1/10,2\n"


def test_kappa_profile(capsys, tmp_path):
    p = tmp_path / "cloud.csv"
    p.write_text("0\n1/10\n1/2\n6/10\n")
    code, doc = run_json(capsys, "kappa", "--cloud", str(p))
    assert code == 0
    assert doc["result"]["heights"] == ["1/10", "2/5"]
    assert doc["result"]["counts"] == [2, 1]


@pytest.mark.parametrize(
    "rows", ["1e160,0\n-1e160,0\n0,1\n", "1e308\n-1e308\n"], ids=["plane", "line"]
)
def test_cloud_whose_distances_overflow_exits_two(capsys, tmp_path, rows):
    p = tmp_path / "wide.csv"
    p.write_text(rows)
    for argv in (("kappa", "--cloud", str(p)), ("gaps", "--metric", "--cloud", str(p), "--noise-floor", "1")):
        code, out = run(capsys, *argv)
        assert code == 2
        assert "Infinity" not in out
        doc = json.loads(out)
        assert doc["result"]["error"]["kind"] == "ValueError"
        assert "overflow" in doc["result"]["error"]["message"]


def test_cloud_just_inside_the_float_range(capsys, tmp_path):
    for rows, height in (("6e153,0\n-6e153,0\n0,1\n", 6e153), ("8e307\n-8e307\n", 1.6e308)):
        p = tmp_path / "wide.csv"
        p.write_text(rows)
        code, out = run(capsys, "kappa", "--cloud", str(p))
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["counts"] == [1]
        assert doc["result"]["heights"] == [pytest.approx(height, rel=1e-15)]


_INSTANCE_ONLY = {
    "instance file": (CANTOR,),
    "root": ("--root", "u"),
    "depth": ("--depth", "12"),
    "points": ("--points", "midpoint"),
}


@pytest.mark.parametrize("given", sorted(_INSTANCE_ONLY))
def test_cloud_rejects_instance_only_inputs(capsys, tmp_path, given):
    # even the default value, given explicitly, is an input the cloud ignores
    p = tmp_path / "cloud.csv"
    p.write_text("0\n1/10\n1/2\n")
    extra = _INSTANCE_ONLY[given]
    for argv in (
        ("kappa", "--cloud", str(p), "--delta", "1/10", *extra),
        ("gaps", "--metric", "--cloud", str(p), "--noise-floor", "1/100", *extra),
    ):
        code, out = run(capsys, *argv)
        assert code == 2
        doc = json.loads(out)  # exactly one envelope, nothing after it
        assert doc["result"]["error"]["kind"] == "ValueError"
        assert "--cloud" in doc["result"]["error"]["message"]


def test_cloud_run_echoes_cover_defaults(capsys, tmp_path):
    p = tmp_path / "cloud.csv"
    p.write_text("0\n1/10\n1/2\n")
    for argv in (
        ("kappa", "--cloud", str(p)),
        ("gaps", "--metric", "--cloud", str(p), "--noise-floor", "1/100"),
    ):
        code, doc = run_json(capsys, *argv)
        assert code == 0
        params = doc["parameters"]
        assert (params["depth"], params["points"], params["root"]) == (12, "midpoint", None)
    # an instance run still takes them
    code, doc = run_json(capsys, "kappa", CANTOR, "--depth", "3", "--points", "endpoints", "--root", "u")
    assert code == 0
    assert (doc["parameters"]["depth"], doc["parameters"]["points"]) == (3, "endpoints")
    assert doc["result"]["points"] == 16


def test_ratios_subcommand(capsys):
    code, doc = run_json(capsys, "ratios", CANTOR, "--theta", "1/9")
    assert code == 0
    assert doc["parameters"]["theta"] == "1/9"
    assert "1/3" in doc["result"]["certified"]
    assert doc["result"]["symbolic_used"] is True


def test_algdep_sources(capsys):
    code, doc = run_json(capsys, "algdep", MIXED, "--from-gaps")
    assert code == 0
    assert doc["parameters"]["source"] == "gaps"
    assert doc["result"]["independence_number"] == 2
    assert doc["result"]["dependence_number"] == 1
    code, doc = run_json(capsys, "algdep", MIXED, "--from-ifs")
    assert code == 0
    assert doc["result"]["independence_number"] == 2
    code, doc = run_json(capsys, "algdep", CANTOR, "--from-ifs")
    assert doc["result"]["independence_number"] == 1


def test_verify_commensurability_instances(capsys):
    code, doc = run_json(capsys, "verify", CANTOR, "--commensurability", ITER2)
    assert code == 0
    assert doc["claim"] == "commensurability"
    assert doc["result"]["status"] == "pass"


def test_verify_commensurability_ratio_lists(capsys):
    code, doc = run_json(
        capsys,
        "verify",
        "--commensurability",
        "--ratios-a",
        "1/3",
        "--ratios-b",
        "1/9",
    )
    assert code == 0
    assert doc["result"]["status"] == "pass"
    code, doc = run_json(
        capsys,
        "verify",
        "--commensurability",
        "--ratios-a",
        "1/2",
        "--ratios-b",
        "1/3",
    )
    assert code == 1
    assert doc["result"]["status"] == "fail"
    assert doc["result"]["summary"].startswith("counterexample")


def test_verify_commensurability_argument_errors(capsys):
    code, doc = run_json(capsys, "verify", "--commensurability", "--ratios-a", "1/2")
    assert code == 2
    code, doc = run_json(
        capsys,
        "verify",
        CANTOR,
        "--commensurability",
        ITER2,
        "--ratios-a",
        "1/2",
    )
    assert code == 2
    code, doc = run_json(capsys, "verify", CANTOR, "--commensurability")
    assert code == 2


def test_verify_yzx(capsys):
    code, doc = run_json(capsys, "verify", MIXED, "--yzx")
    assert code == 0
    assert doc["claim"] == "intrinsic-dependence"
    assert doc["result"]["status"] == "pass"
    assert doc["result"]["summary"] == "dependence 1 = 1"


def test_verify_yzx_inconclusive_exits_zero(capsys):
    code, doc = run_json(capsys, "verify", OVERLAP3, "--yzx")
    assert code == 0
    assert doc["result"]["status"] == "inconclusive"


def test_verify_sandwich(capsys):
    code, doc = run_json(capsys, "verify", CANTOR, "--sandwich", "--theta", "1/9")
    assert code == 0
    assert doc["claim"] == "ratio-sandwich"
    assert doc["result"]["status"] == "pass"
    code, doc = run_json(capsys, "verify", CANTOR, "--sandwich")
    assert code == 2


def test_bound_subcommand(capsys):
    code, doc = run_json(capsys, "bound", MIXED)
    assert code == 0
    assert doc["claim"] == "cardinality-bound"
    assert doc["result"]["lower_bound"] == 2
    code, doc = run_json(capsys, "bound", CANTOR)
    assert doc["result"]["lower_bound"] == 1
    code, doc = run_json(capsys, "bound", CANTOR, "--from-ifs")
    assert doc["result"]["lower_bound"] == 1


def test_prune_subcommand(capsys, tmp_path):
    out_path = tmp_path / "pruned.json"
    code, doc = run_json(
        capsys,
        "prune",
        OVERLAP3,
        "--assert-full-measure",
        "--write-pruned",
        str(out_path),
    )
    assert code == 0
    assert doc["claim"] == "ssc-pruning"
    assert doc["result"]["kept_edges"] == ["S1", "S2"]
    assert doc["result"]["removals"] == [
        {"removed": "S3", "kept": "S1", "word": ["S1"]}
    ]
    # the written instance file round-trips and validates clean
    code, doc = run_json(capsys, "validate", str(out_path))
    assert code == 0
    assert doc["result"]["separation"] == "hull_disjoint"


def test_prune_separated_system_skips_audit(capsys):
    # four maps: a depth-10 cover would need 4**10 compositions, past the
    # default budget; pruning builds no cover, so it still exits 0
    code, doc = run_json(capsys, "prune", ITER2, "--assert-full-measure")
    assert code == 0
    assert doc["result"]["removals"] == []
    assert doc["result"]["kept_edges"] == ["S1", "S2", "S3", "S4"]
    assert doc["result"]["hausdorff_distance"] == "0"
    assert doc["result"]["hausdorff_bound"] == "2/3486784401"
    assert doc["result"]["check_depth"] == 10


def test_prune_requires_assertion(capsys):
    code, doc = run_json(capsys, "prune", OVERLAP3)
    assert code == 2
    assert doc["result"]["error"]["kind"] == "ValueError"


def test_prune_failure_exits_one(capsys, tmp_path):
    p = tmp_path / "sheared.json"
    p.write_text(
        json.dumps(
            {
                "ifs": [
                    {"ratio": "2/3", "offset": "0"},
                    {"ratio": "2/3", "offset": "1/3"},
                ]
            }
        )
    )
    code, doc = run_json(capsys, "prune", str(p), "--assert-full-measure")
    assert code == 1
    assert doc["claim"] == "ssc-pruning"
    assert doc["result"]["error"]["kind"] == "PruneError"


def test_output_file_matches_stdout(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out = run(
        capsys, "hull", GD2, "--output", str(out_path)
    )
    assert code == 0
    assert out_path.read_text() == out
    doc = json.loads(out)
    assert doc["result"]["hulls"]["u"] == {"lo": "0", "hi": "1", "diameter": "1"}


def test_hull_unknown_root(capsys):
    code, doc = run_json(capsys, "hull", CANTOR, "--root", "w")
    assert code == 2
    assert doc["result"]["error"]["kind"] == "ValueError"


@pytest.mark.parametrize("root", ["nope", ""])
@pytest.mark.parametrize(
    "argv",
    [
        ("kappa", GD2, "--depth", "3", "--delta", "1/10"),
        ("gaps", CANTOR, "--metric", "--noise-floor", "1/100"),
        ("gaps", CANTOR, "--exact", "--cutoff", "1/100"),
    ],
    ids=["kappa", "gaps-metric", "gaps-exact"],
)
def test_unknown_root_message_matches_symbolic_path(capsys, argv, root):
    # only an absent --root means the first vertex, on every path
    code, doc = run_json(capsys, *argv, f"--root={root}")
    assert code == 2
    assert doc["result"]["error"]["message"] == f"unknown root vertex {root!r}"


@pytest.mark.parametrize(
    "argv, where, kind",
    [
        (("validate", CANTOR), "missing/report.json", "FileNotFoundError"),
        (("gaps", CANTOR, "--exact", "--cutoff", "1/100", "--format", "csv"), ".", "IsADirectoryError"),
        (("validate", "/no/such/file.json"), "missing/report.json", "FileNotFoundError"),
    ],
    ids=["json", "csv", "error-envelope"],
)
def test_unwritable_output(capsys, tmp_path, monkeypatch, argv, where, kind):
    bad = str(tmp_path / where)
    writes = []
    write_text = Path.write_text

    def counted(self, *args, **kwargs):
        writes.append(str(self))
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", counted)
    code, out = run(capsys, *argv, "--output", bad)
    assert code == 2
    doc = json.loads(out)  # exactly one envelope: no report before it
    assert doc["command"] == argv[0]
    assert doc["result"]["error"]["kind"] == kind
    assert bad in doc["result"]["error"]["message"]
    assert writes == [bad]  # the bad path is tried once, not again for the error


@pytest.mark.parametrize(
    "argv",
    [
        ("gaps", CANTOR, "--exact", "--cutoff", "1/0"),
        ("ratios", CANTOR, "--theta", "1/0"),
        ("kappa", CANTOR, "--delta", "1/0"),
        ("verify", "--commensurability", "--ratios-a", "1/0", "--ratios-b", "1/2"),
        ("verify", CANTOR, "--sandwich", "--theta", "1/9", "--floor", "0/0"),
        ("ratios", CANTOR, "--theta", "1/9", "--verify-depth", "-5"),
        # each of these used to pass because the stage that checks it was skipped
        ("prune", CANTOR, "--assert-full-measure", "--depth", "-2"),
        ("verify", CANTOR, "--yzx", "--floor", "1/2", "--verify-depth", "-5"),
        ("verify", CANTOR, "--yzx", "--floor", "1/2", "--min-witnesses", "2"),
        ("verify", CANTOR, "--sandwich", "--theta", "1/2", "--floor", "1/100", "--verify-depth", "-5"),
        ("verify", CANTOR, "--sandwich", "--theta", "1/2", "--floor", "1/100", "--min-witnesses", "1"),
        # the cloud subcommands used to end in a KeyError from the cover builder
        ("kappa", GD2, "--depth", "3", "--root", "nope", "--delta", "1/10"),
        ("gaps", CANTOR, "--metric", "--noise-floor", "1/100", "--root", "nope"),
    ],
    ids=[
        "gaps-cutoff",
        "ratios-theta",
        "kappa-delta",
        "ratios-a",
        "sandwich-floor",
        "verify-depth",
        "prune-depth",
        "yzx-verify-depth",
        "yzx-min-witnesses",
        "sandwich-verify-depth",
        "sandwich-min-witnesses",
        "kappa-root",
        "gaps-metric-root",
    ],
)
def test_bad_argument_exits_two(capsys, argv):
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc["command"] == argv[0]
    assert doc["result"]["error"]["kind"] == "ValueError"


def test_value_past_float_range_on_float_cloud_exits_two(capsys, tmp_path):
    p = tmp_path / "plane.csv"
    p.write_text("0,0\n0.1,0\n0.5,0.5\n")
    for argv, name in (
        (("kappa", "--cloud", str(p), "--delta=1E400"), "--delta"),
        (("gaps", "--metric", "--cloud", str(p), "--noise-floor=1E400"), "--noise-floor"),
    ):
        code, out = run(capsys, *argv)
        assert code == 2
        doc = json.loads(out)
        assert doc["result"]["error"] == {"kind": "ValueError", "message": f"{name} is too large for a float cloud"}


def test_mining_arguments_checked_before_enumeration(capsys, monkeypatch):
    # an enumeration that would exhaust its budget must not mask the bad argument
    monkeypatch.setenv("DUSTGAPS_BUDGET", "2")
    argv = ("ratios", CANTOR, "--theta", "1/9", "--cutoff", "1/10000", "--min-witnesses", "1")
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc["result"]["error"]["kind"] == "ValueError"


def test_budget_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("DUSTGAPS_BUDGET", "many")
    code, doc = run_json(capsys, "gaps", CANTOR, "--exact", "--cutoff", "1/100")
    assert code == 2
    monkeypatch.setenv("DUSTGAPS_BUDGET", "-4")
    code, doc = run_json(capsys, "gaps", CANTOR, "--exact", "--cutoff", "1/100")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("gaps", CANTOR, "--exact", "--cutoff", "1/10000"),
        ("verify", CANTOR, "--yzx"),
        ("verify", CANTOR, "--sandwich", "--theta", "1/9"),
    ],
    ids=["gaps", "yzx", "sandwich"],
)
def test_budget_env_exhaustion(capsys, monkeypatch, argv):
    monkeypatch.setenv("DUSTGAPS_BUDGET", "2")
    code, doc = run_json(capsys, *argv)
    assert code == 3
    assert doc["result"]["error"]["kind"] == "ResourceError"


def test_gaps_metric_collinear_cloud_above_dense_limit(capsys, tmp_path):
    # flat input makes Qhull fail; the Delaunay path must project instead
    p = tmp_path / "line.csv"
    n = metgaps._DENSE_LIMIT + 100
    p.write_text("".join(f"{i / n!r},{2 * i / n + 1!r}\n" for i in range(n)))
    code, doc = run_json(capsys, "gaps", "--metric", "--cloud", str(p), "--noise-floor", "1e-6")
    assert code == 0
    assert doc["result"]["cloud"]["n"] == n
    assert doc["result"]["values"]


@pytest.mark.parametrize(
    "document",
    [
        {"ifs": 5},
        {"ifs": [{"offset": "0"}, {"ratio": "1/3", "offset": "2/3"}]},
        {"ifs": [{"ratio": 0.3333333333333333, "offset": "0"}, {"ratio": "1/3", "offset": "2/3"}]},
        {"ifs": [{"ratio": "1/3", "offset": 0}, {"ratio": "1/3", "offset": "2/3"}]},
        {"ifs": [{"ratio": "1/3", "offset": "0", "sign": 1.7}, {"ratio": "1/3", "offset": "2/3"}]},
        {"ifs": [{"ratio": "1/3", "offset": "0", "sign": True}, {"ratio": "1/3", "offset": "2/3"}]},
        {"ifs": [{"ratio": "1/3", "offset": "0"}, {"ratio": "1/3", "offset": "2/3"}], "name": "x"},
        {"vertices": ["u"], "edges": [], "ifs": []},
        {"ifs": [{"ratio": "1/0", "offset": "0"}, {"ratio": "1/3", "offset": "2/3"}]},
    ],
)
def test_validate_malformed_instance(capsys, tmp_path, document):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(document))
    code, doc = run_json(capsys, "validate", str(p))
    assert code == 2
    assert doc["result"]["error"]["kind"] == "ValueError"


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.sampled_from(["1/3", "1/2", "2/3", "0", "1", "-1/4", "3/2", "1/0", "u", "", " 1/5 "]),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# half the maps are well formed, so some documents are valid instances; at
# most two maps per vertex keep their separation refinement cheap
_MAP = st.one_of(
    st.fixed_dictionaries(
        {"ratio": st.sampled_from(["1/3", "1/4", "2/3"]), "offset": st.sampled_from(["0", "1/3", "2/3"])},
        optional={"sign": st.sampled_from([1, -1])},
    ),
    st.fixed_dictionaries({"ratio": _JSON, "offset": _JSON}, optional={"sign": _JSON}),
)


def _edges_from(vertex: str):
    return st.lists(
        st.tuples(st.sampled_from(["u", "v"]), _MAP).map(
            lambda t: {"from": vertex, "to": t[0], **t[1]}
        ),
        max_size=2,
    )


_DOCUMENTS = st.one_of(
    _JSON,
    st.fixed_dictionaries({"ifs": st.lists(_MAP, max_size=2)}, optional={"name": _JSON}),
    st.fixed_dictionaries(
        {
            "vertices": st.lists(st.sampled_from(["u", "v"]), max_size=2),
            "edges": st.tuples(_edges_from("u"), _edges_from("v")).map(lambda t: t[0] + t[1]),
        }
    ),
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(document=_DOCUMENTS)
def test_validate_fuzzed_documents(capsys, tmp_path, document):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(document))
    try:
        assert isinstance(model.load_instance(str(p)), model.GDInstance)
    except ValueError:
        pass
    code, out = run(capsys, "validate", str(p))
    assert code in (0, 2)
    doc = json.loads(out)  # exactly one envelope, nothing after it
    assert doc["command"] == "validate"
    assert "Traceback" not in out


def _fresh_python(probe: str, *args: str) -> str:
    """stdout of a new interpreter running probe with this checkout's src."""
    src = str(Path(dustgaps.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-c", probe, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def test_cli_import_does_not_load_scipy():
    # every CLI call pays its imports; scipy loads only for the Delaunay MST
    # and numpy only for the subcommands that build a point cloud
    out = _fresh_python(
        "import sys, dustgaps.cli; print('scipy' in sys.modules, 'numpy' in sys.modules)"
    )
    assert out.strip() == "False False"


# the exact subcommands of the benchmark's cli workload
_EXACT_CALLS = [
    ["validate", GD2],
    ["hull", GD2],
    ["ratios", MIXED, "--theta", "1/24"],
    ["bound", MIXED],
    ["gaps", MIXED, "--exact", "--cutoff", "1/1000"],
    ["algdep", GD2, "--from-gaps"],
    ["verify", MIXED, "--yzx"],
    ["verify", MIXED, "--sandwich", "--theta", "1/24"],
    ["verify", CANTOR, "--commensurability", ITER2],
    ["prune", OVERLAP3, "--assert-full-measure"],
]


def test_exact_subcommands_do_not_load_numpy():
    probe = (
        "import contextlib, io, json, sys\n"
        "from dustgaps import cli\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    out = _fresh_python(probe, json.dumps(_EXACT_CALLS))
    assert out.splitlines()[-1] == f"{[0] * len(_EXACT_CALLS)} False"


def test_method_help_names_the_dense_limit():
    # the help text spells the limit out so that building the parser needs no metgaps
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name in ("gaps", "kappa"):
        method = next(a for a in sub.choices[name]._actions if "--method" in a.option_strings)
        assert f"dense up to {metgaps._DENSE_LIMIT} points" in method.help


def test_kappa_up_to_dense_limit_does_not_load_scipy(tmp_path):
    # kappa reads dense Prim's tree up to the limit; only Delaunay needs scipy
    rng = random.Random(7)
    p = tmp_path / "plane.csv"
    p.write_text("".join(f"{rng.random()!r},{rng.random()!r}\n" for _ in range(metgaps._DENSE_LIMIT)))
    probe = (
        "import sys; from dustgaps import cli; "
        "code = cli.main(['kappa', '--cloud', sys.argv[1], '--delta', '1/50']); "
        "print(code, 'scipy' in sys.modules)"
    )
    out = _fresh_python(probe, str(p))
    assert out.splitlines()[-1] == "0 False"


_NUMBERS = st.one_of(
    st.integers(-9, 9).map(str),
    st.fractions(min_value=-2, max_value=2, max_denominator=9).map(str),
    st.floats(-2, 2).map(repr),
)
_JUNK = st.one_of(
    st.sampled_from(["1/0", "1e3", "nan", "inf", "-inf", "", " ", "x", "1/3/5", "--1", "1e999"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(alphabet="0123456789./-+eE xn", max_size=5),
)


def _csv(rows):
    return "".join(",".join(r) + "\n" for r in rows)


def _rows(cells, min_rows=0):
    return st.integers(1, 4).flatmap(
        lambda d: st.lists(st.lists(cells, min_size=d, max_size=d), min_size=min_rows, max_size=6)
    )


# clean clouds of 1 to 4 columns, the same with junk cells, and ragged rows
# (mixed dimensions); an empty list gives an empty file
_CSV_TEXT = st.one_of(
    _rows(_NUMBERS, min_rows=1).map(_csv),
    _rows(_NUMBERS | _JUNK).map(_csv),
    st.lists(st.lists(_NUMBERS | _JUNK, max_size=4), max_size=6).map(_csv),
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=_CSV_TEXT)
def test_cloud_loader_fuzzed_csv(capsys, tmp_path, text):
    p = tmp_path / "cloud.csv"
    p.write_text(text)
    try:
        assert isinstance(metgaps.read_cloud_csv(str(p)), metgaps.PointCloud)
    except ValueError:
        pass
    for argv in (
        ("gaps", "--metric", "--cloud", str(p), "--noise-floor", "1/100"),
        ("kappa", "--cloud", str(p), "--delta", "1/10"),
    ):
        code, out = run(capsys, *argv)
        assert code in (0, 2)
        doc = json.loads(out)  # exactly one envelope, nothing after it
        assert doc["command"] == argv[0]
        assert "Traceback" not in out


# argument strings: values that are valid for cantor.json (half the draws,
# so that the analyses run), edge cases, and short junk (at most five
# characters, so no exponent is large enough to make an enumeration slow)
_ARG = st.one_of(
    st.sampled_from(["1/3", "1/9", "1/27", "1/2", "1/10", "1/100", "1/1000", "1/2,1/4"]),
    st.sampled_from(
        ["1/0", "0/0", "0", "-0", "-1/3", "", " ", "2", "1e-3", "0.1", "nan", "inf", "3/", "/3",
         "x", ",", "1/2,,1/8", "1/4,2/3"]
    )
    | st.text(alphabet="0123456789/-+.eE ,x", max_size=5),
)
_DEPTH = st.integers(-2, 6).map(str)
# cantor's vertices and names that are none of them
_CANTOR_VERTICES = model.load_instance(CANTOR).vertices
_ROOT = st.one_of(
    st.just(()),
    st.sampled_from([*_CANTOR_VERTICES, "v", "w", "nope", "u ", ""]).map(lambda r: ("--root", r)),
)
_MINING = st.tuples(st.integers(1, 5), st.integers(-2, 3)).map(
    lambda t: ("--min-witnesses", str(t[0]), "--verify-depth", str(t[1]))
)


def _fuzzed_argv(cloud: str):
    # values go in as --option=value so that a leading "-" stays a value
    return st.one_of(
        st.tuples(st.just(("gaps", CANTOR, "--exact")), _ARG, st.sampled_from(["json", "csv"]), _ROOT).map(
            lambda t: (*t[0], f"--cutoff={t[1]}", "--format", t[2], *t[3])
        ),
        st.tuples(st.sampled_from([CANTOR, None]), _ARG, _DEPTH, _ROOT).map(
            lambda t: ("gaps", "--metric", f"--noise-floor={t[1]}")
            + ((t[0], "--depth", t[2], *t[3]) if t[0] else ("--cloud", cloud))
        ),
        st.tuples(
            st.sampled_from([CANTOR, None]), st.lists(_ARG, min_size=1, max_size=3), _DEPTH, _ROOT
        ).map(
            lambda t: ("kappa", *(f"--delta={d}" for d in t[1]))
            + ((t[0], "--depth", t[2], *t[3]) if t[0] else ("--cloud", cloud))
        ),
        st.tuples(_ARG, _ARG, _MINING, _ROOT).map(
            lambda t: ("ratios", CANTOR, f"--theta={t[0]}", f"--cutoff={t[1]}", *t[2], *t[3])
        ),
        st.tuples(st.sampled_from(["algdep", "bound"]), _ARG, _ARG, _MINING, _ROOT).map(
            lambda t: (t[0], CANTOR, "--from-gaps", f"--theta={t[1]}", f"--cutoff={t[2]}", *t[3], *t[4])
        ),
        st.tuples(_ARG, _ARG, _MINING, _ROOT).map(
            lambda t: ("verify", CANTOR, "--sandwich", f"--theta={t[0]}", f"--floor={t[1]}", *t[2], *t[3])
        ),
        st.tuples(_ARG, _MINING, _ROOT).map(
            lambda t: ("verify", CANTOR, "--yzx", f"--floor={t[0]}", *t[1], *t[2])
        ),
        st.tuples(_ARG, _ARG).map(
            lambda t: ("verify", "--commensurability", f"--ratios-a={t[0]}", f"--ratios-b={t[1]}")
        ),
        st.tuples(st.sampled_from([CANTOR, OVERLAP3]), _DEPTH).map(
            lambda t: ("prune", t[0], "--assert-full-measure", "--depth", t[1])
        ),
    )


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_subcommand_arguments_fuzzed(capsys, tmp_path, data):
    cloud = tmp_path / "plane.csv"
    if not cloud.exists():
        cloud.write_text("0,0\n0.1,0\n0.5,0.5\n1,1\n0.9,1\n")
    argv = data.draw(_fuzzed_argv(str(cloud)))
    code, out = run(capsys, *argv)
    assert "Traceback" not in out
    if out.startswith("{"):
        doc = json.loads(out)  # exactly one envelope, nothing after it
        assert doc["command"] == argv[0]
    else:
        assert code == 0 and out.endswith("\n") and "{" not in out
    assert code in (0, 1, 2, 3)
    # exit 1 is a failed verdict, never an error
    assert code != 1 or argv[0] in ("verify", "prune")
    # invalid mining and prune arguments are rejected even when the stage
    # that would use them is skipped
    opts = dict(zip(argv, argv[1:]))
    if (
        int(opts.get("--min-witnesses", 3)) < 3
        or int(opts.get("--verify-depth", 0)) < 0
        or (argv[0] == "prune" and int(opts["--depth"]) < 0)
        or opts.get("--root", _CANTOR_VERTICES[0]) not in _CANTOR_VERTICES
    ):
        assert code == 2
