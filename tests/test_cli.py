import copy
import dataclasses
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochschild import cli, kahler
from hochschild.cli import main
from hochschild.errors import InstanceFormatError, ScalarError
from hochschild.fixtures import fix_dd
from hochschild.morita import standard_matrix_morita
from hochschild.serialize import Instance, parse_instance, serialize_instance


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fixtures")
    assert main(["fixtures", "--outdir", str(outdir)]) == 0
    return outdir


def test_fixture_files_exist(fixture_dir):
    names = {p.name for p in fixture_dir.iterdir()}
    assert {
        "FIX-K.json",
        "FIX-D.json",
        "FIX-DD.json",
        "FIX-P3.json",
        "FIX-KB.json",
        "FIX-EXT.json",
        "FIX-D-M2.json",
        "FIX-DD-M2.json",
    } <= names


def test_validate_ok(fixture_dir, capsys):
    assert main(["validate", str(fixture_dir / "FIX-DD.json")]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_emitted_matrix_lifts_validate(fixture_dir):
    assert main(["validate", str(fixture_dir / "FIX-D-M2.json")]) == 0
    assert main(["validate", str(fixture_dir / "FIX-DD-M2.json")]) == 0


def test_validate_reports_broken_table(fixture_dir, tmp_path, capsys):
    data = json.loads((fixture_dir / "FIX-DD.json").read_text())
    data["A"]["table"][1][1][1] = "1"  # x*x = x breaks associativity/unit pattern
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 1


def test_malformed_scalar_is_input_error(fixture_dir, tmp_path, capsys):
    data = json.loads((fixture_dir / "FIX-DD.json").read_text())
    data["A"]["unit"][0] = "1/0"
    bad = tmp_path / "branch.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err


def test_unparseable_file_is_input_error(tmp_path):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert main(["validate", str(p)]) == 2


def test_homology_output(fixture_dir, capsys):
    assert main(
        ["homology", str(fixture_dir / "FIX-DD.json"), "--max-degree", "3"]
    ) == 0
    out = capsys.readouterr().out
    assert "H_0: dim 2" in out
    assert "H_1: dim 0" in out
    assert "H_2: dim 0" in out


def test_homology_classical_with_reps(fixture_dir, capsys):
    assert main(
        [
            "homology",
            str(fixture_dir / "FIX-D.json"),
            "--kind",
            "classical",
            "--max-degree",
            "2",
            "--reps",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "H_1: dim 1" in out
    assert "rep" in out


def test_classical_reps_label_b_slots_by_the_ground_field(
    fixture_dir, tmp_path, capsys
):
    """The classical complex is the secondary complex of trivial_triple(A),
    so its b-slots hold the unit of k: FIX-DD with B's basis reordered to
    (x, 1) prints them as 1, as the unreordered file does."""
    path = fixture_dir / "FIX-DD.json"
    data = json.loads(path.read_text())
    swap = (1, 0)
    b = data["B"]
    table = b["table"]
    b["basis"] = [b["basis"][k] for k in swap]
    b["unit"] = ["0", "1"]
    b["table"] = [[[table[i][j][k] for k in swap] for j in swap] for i in swap]
    data["epsilon"] = [[row[k] for k in swap] for row in data["epsilon"]]
    reordered = tmp_path / "FIX-DD-B-reordered.json"
    reordered.write_text(json.dumps(data))
    assert main(["validate", str(reordered)]) == 0
    capsys.readouterr()
    outs = []
    for p in (path, reordered):
        argv = ["homology", str(p), "--kind", "classical", "--reps"]
        assert main([*argv, "--max-degree", "3"]) == 0
        outs.append(capsys.readouterr().out)
    assert "H_2 rep 0: 1*(m1 ; x,x ; 1)" in outs[1]
    assert outs[1] == outs[0]


def test_homology_size_guard_exit_code(fixture_dir, capsys):
    assert main(
        [
            "homology",
            str(fixture_dir / "FIX-DD.json"),
            "--max-degree",
            "3",
            "--guard-bytes",
            "64",
        ]
    ) == 3
    assert "resource guard" in capsys.readouterr().err


def test_exactseq(fixture_dir, capsys):
    assert main(["exactseq", str(fixture_dir / "FIX-DD.json")]) == 0
    out = capsys.readouterr().out
    assert "im Phi2 = ker Psi" in out


def test_kahler(fixture_dir, capsys):
    assert main(["kahler", str(fixture_dir / "FIX-P3.json")]) == 0
    out = capsys.readouterr().out
    assert "dim M (x)_A Omega^1_{A|B}: 2" in out


def test_kahler_noncommutative_is_input_error(fixture_dir, tmp_path, capsys):
    # M_2-style instance: kahler preconditions fail -> exit 2
    assert main(["kahler", str(fixture_dir / "FIX-DD-M2.json")]) == 2


@pytest.mark.parametrize(
    "name, distinct",
    [("FIX-K", 1), ("FIX-D", 2), ("FIX-DD", 2), ("FIX-P3", 2), ("FIX-KB", 3), ("FIX-EXT", 3)],
)
def test_kahler_builds_each_omega_once(fixture_dir, monkeypatch, capsys, name, distinct):
    """The two reports of `hochschild kahler` share one Omega^1 per
    distinct triple among (A, B, eps), (A, k, unit) and (B, k, unit)."""
    built = []

    def counting(t, _build=kahler.kahler_module):
        built.append(t)
        return _build(t)

    monkeypatch.setattr(kahler, "kahler_module", counting)
    assert main(["kahler", str(fixture_dir / f"{name}.json")]) == 0
    assert len(built) == len(set(built)) == distinct


def test_morita(fixture_dir, capsys):
    assert main(
        ["morita", str(fixture_dir / "FIX-D.json"), "--max-degree", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "homology dims agree" in out


def test_morita_matrix_size_option(fixture_dir, capsys):
    """--n sets the matrix size of a file with no morita section; the
    context needs n >= 1."""
    path = str(fixture_dir / "FIX-D-M2.json")
    assert "morita" not in json.loads((fixture_dir / "FIX-D-M2.json").read_text())
    assert main(["morita", path, "--n", "1", "--max-degree", "1"]) == 0
    assert "homology dims agree" in capsys.readouterr().out
    assert main(["morita", path, "--n", "0", "--max-degree", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: matrix context needs n >= 1\n"


def test_morita_negative_degree_is_input_error(fixture_dir, capsys):
    assert main(["morita", str(fixture_dir / "FIX-D.json"), "--max-degree", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "negative degree" in captured.err


def test_kahler_honours_guard_bytes(fixture_dir, capsys):
    assert main(["kahler", str(fixture_dir / "FIX-D.json"), "--guard-bytes", "10"]) == 3
    assert "resource guard" in capsys.readouterr().err


def test_morita_corner_section(fixture_dir, tmp_path, capsys):
    # corner of the 2x2 lift at the (0,0)-block idempotent undoes the lift
    data = json.loads((fixture_dir / "FIX-DD-M2.json").read_text())
    idem = ["0"] * 8
    idem[0] = "1"  # unit of A in the (0,0) block
    data["morita"] = {"kind": "corner", "idempotent": idem}
    p = tmp_path / "corner.json"
    p.write_text(json.dumps(data))
    assert main(["morita", str(p), "--max-degree", "1"]) == 0
    out = capsys.readouterr().out
    assert "homology dims agree" in out


def test_field_override(fixture_dir, capsys):
    assert main(
        [
            "homology",
            str(fixture_dir / "FIX-DD.json"),
            "--field",
            "Fp:1009",
            "--max-degree",
            "3",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "H_2: dim 0" in out


def test_field_override_rejects_composite_modulus(fixture_dir, capsys):
    assert main(
        ["homology", str(fixture_dir / "FIX-DD.json"), "--field", "Fp:1007"]
    ) == 2


def test_output_json(fixture_dir, tmp_path):
    out_path = tmp_path / "report.json"
    assert main(
        [
            "homology",
            str(fixture_dir / "FIX-DD.json"),
            "--max-degree",
            "2",
            "--output",
            str(out_path),
        ]
    ) == 0
    payload = json.loads(out_path.read_text())
    assert payload["ok"] is True


def test_unwritable_output_is_input_error(fixture_dir, tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    path = str(fixture_dir / "FIX-K.json")
    assert main(["validate", path, "--output", str(afile / "x.json")]) == 2
    assert capsys.readouterr().err.startswith(f"input error: cannot write {afile}")



def test_unwritable_output_is_found_before_the_command_runs(
    fixture_dir, tmp_path, capsys, monkeypatch
):
    """`homology` on a lift with an --output under a regular file exits 2
    at once: no complex is built and no report is printed."""

    def no_build(*args, **kwargs):
        raise AssertionError("a complex was built")

    monkeypatch.setattr(cli, "build_secondary_complex", no_build)
    afile = tmp_path / "afile"
    afile.write_text("")
    path = str(fixture_dir / "FIX-DD-M2.json")
    output = str(afile / "x.json")
    assert main(["homology", path, "--max-degree", "3", "--output", output]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: cannot write {output}: Not a directory\n"
    assert main(["homology", path, "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: cannot write {tmp_path}")
    assert afile.read_text() == ""

def test_unwritable_fixtures_outdir_is_input_error(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["fixtures", "--outdir", str(afile)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: cannot write {afile}")


def test_round_trip_preserves_semantics(fixture_dir):
    text = (fixture_dir / "FIX-DD.json").read_text()
    inst = parse_instance(text)
    again = serialize_instance(inst)
    assert parse_instance(again).triple == inst.triple
    assert parse_instance(again).module == inst.module
    assert again == serialize_instance(parse_instance(again))


def test_morphism_section_validated(fixture_dir, tmp_path):
    data = json.loads((fixture_dir / "FIX-DD.json").read_text())
    data["morphism"] = {
        "f": [["1", "0"], ["0", "1"]],
        "g": [["1", "0"], ["0", "1"]],
    }
    p = tmp_path / "with-morphism.json"
    p.write_text(json.dumps(data))
    assert main(["validate", str(p)]) == 0
    data["morphism"]["g"] = [["1", "1"], ["0", "1"]]  # breaks the square
    p.write_text(json.dumps(data))
    assert main(["validate", str(p)]) == 1


@pytest.mark.parametrize("dim", [2.0, True, -1, "2"], ids=["float", "bool", "negative", "string"])
@pytest.mark.parametrize("command", ["validate", "homology"])
def test_module_dim_must_be_a_non_negative_int(
    fixture_dir, tmp_path, capsys, command, dim
):
    data = json.loads((fixture_dir / "FIX-D.json").read_text())
    data["module"]["dim"] = dim
    with pytest.raises(InstanceFormatError):
        parse_instance(json.dumps(data))
    p = tmp_path / "bad-dim.json"
    p.write_text(json.dumps(data))
    assert main([command, str(p)]) == 2
    assert "input error" in capsys.readouterr().err


def test_algebra_dim_must_be_an_int(fixture_dir):
    data = json.loads((fixture_dir / "FIX-D.json").read_text())
    for dim in (2.0, True):
        data["A"]["dim"] = dim
        with pytest.raises(InstanceFormatError):
            parse_instance(json.dumps(data))


def test_instance_parse_rejects_bad_morita_section():
    t, m = fix_dd()
    inst = Instance(t.A.field, t, m, morita={"kind": "nonsense"})
    with pytest.raises(InstanceFormatError):
        parse_instance(serialize_instance(inst))


def test_field_override_rejects_huge_modulus(fixture_dir, capsys):
    argv = ["homology", str(fixture_dir / "FIX-K.json"), "--field", "Fp:" + "9" * 400]
    assert main(argv) == 2
    assert "input error" in capsys.readouterr().err


def test_instance_field_with_huge_modulus_is_format_error(fixture_dir):
    data = json.loads((fixture_dir / "FIX-K.json").read_text())
    for name in ("Fp:" + "9" * 400, 7):
        data["field"] = name
        with pytest.raises(InstanceFormatError):
            parse_instance(json.dumps(data))


@pytest.mark.parametrize(
    "idempotent",
    [[1, 0], ["0", "0", "1"], "10", ["1", "0", "0", "0", "0"]],
    ids=["not-strings", "three-entries", "string", "five-entries"],
)
def test_corner_idempotent_must_be_dim_a_scalars(
    fixture_dir, tmp_path, capsys, idempotent
):
    data = json.loads((fixture_dir / "FIX-D.json").read_text())
    data["morita"] = {"kind": "corner", "idempotent": idempotent}
    with pytest.raises(InstanceFormatError):
        parse_instance(json.dumps(data))
    p = tmp_path / "corner.json"
    p.write_text(json.dumps(data))
    assert main(["morita", str(p)]) == 2
    assert "input error" in capsys.readouterr().err


def test_matrix_context_guarded_before_it_is_built(fixture_dir, tmp_path, capsys):
    data = json.loads((fixture_dir / "FIX-D.json").read_text())
    data["morita"] = {"kind": "matrix", "n": 16}
    p = tmp_path / "m16.json"
    p.write_text(json.dumps(data))
    start = time.perf_counter()
    assert main(["morita", str(p), "--guard-bytes", "1000000"]) == 3
    assert time.perf_counter() - start < 2
    assert "resource guard" in capsys.readouterr().err


def test_matrix_triple_tables_guarded_before_they_are_built(
    fixture_dir, tmp_path, monkeypatch, capsys
):
    """At degree 0 the target complex of FIX-K at n = 30 is small, but
    the estimate also counts (n^2 dim A)^3 = 900^3 scalars, which bound
    the context's balancing relations and the product columns of
    M_30(A): the default guard must refuse it before anything is built."""
    data = json.loads((fixture_dir / "FIX-K.json").read_text())
    data["morita"] = {"kind": "matrix", "n": 30}
    p = tmp_path / "k30.json"
    p.write_text(json.dumps(data))
    built = []
    monkeypatch.setattr(cli, "standard_matrix_morita", lambda *a: built.append(a))
    start = time.perf_counter()
    assert main(["morita", "--max-degree", "0", str(p)]) == 3
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err.startswith("resource guard")
    assert not built


@pytest.mark.parametrize("command", ["homology", "exactseq", "kahler", "morita"])
def test_invalid_instance_is_rejected_before_building(
    fixture_dir, tmp_path, capsys, command
):
    data = json.loads((fixture_dir / "FIX-P3.json").read_text())
    data["A"]["unit"] = ["2", "0", "0"]
    p = tmp_path / "bad-unit.json"
    p.write_text(json.dumps(data))
    assert main([command, str(p)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and "unit law" in err


def test_morita_rejects_an_invalid_context(fixture_dir, monkeypatch, capsys):
    def broken(t, n):  # f doubled: its dual-basis certificate no longer sums to 1
        data = standard_matrix_morita(t, n)
        return dataclasses.replace(data, f_mat=data.f_mat.scale(2))

    monkeypatch.setattr(cli, "standard_matrix_morita", broken)
    assert main(["morita", str(fixture_dir / "FIX-D.json")]) == 2
    assert "morita context failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, path, value",
    [
        ("FIX-D", ("A", "unit"), "10"),
        ("FIX-D", ("A", "basis"), "ab"),
        ("FIX-K", ("B", "table"), "1"),
        ("FIX-D", ("epsilon",), ["1", "0"]),
        ("FIX-K", ("module", "left"), [["1"]]),
        ("FIX-K", ("module", "right"), [["1"]]),
        ("FIX-K", ("morphism",), {"f": ["1"], "g": [["1"]]}),
        ("FIX-K", ("morphism",), {"f": [["1"]], "g": ["1"]}),
        ("FIX-D", ("morita",), {"kind": "matrix", "n": True}),
    ],
    ids=[
        "unit-string",
        "basis-string",
        "table-string",
        "epsilon-row-strings",
        "left-row-strings",
        "right-row-strings",
        "morphism-f-row-strings",
        "morphism-g-row-strings",
        "morita-n-bool",
    ],
)
def test_lists_and_ints_are_required(fixture_dir, tmp_path, capsys, name, path, value):
    """A JSON string is not a list of one-character scalars, and true is
    not the integer 1."""
    data = json.loads((fixture_dir / f"{name}.json").read_text())
    section = data
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    with pytest.raises(InstanceFormatError):
        parse_instance(json.dumps(data))
    p = tmp_path / "malformed.json"
    p.write_text(json.dumps(data))
    assert main(["validate", str(p)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("label", [2, None, ["x"]], ids=["number", "null", "list"])
def test_basis_labels_must_be_strings(fixture_dir, tmp_path, capsys, label):
    data = json.loads((fixture_dir / "FIX-D.json").read_text())
    data["A"]["basis"] = ["1", label]
    with pytest.raises(InstanceFormatError):
        parse_instance(json.dumps(data))
    p = tmp_path / "label.json"
    p.write_text(json.dumps(data))
    assert main(["validate", str(p)]) == 2
    assert "basis labels must be strings" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text", ["[" * 100_000, "[" * 100_000 + "]" * 100_000], ids=["unclosed", "closed"]
)
def test_deeply_nested_json_is_input_error(tmp_path, capsys, text):
    p = tmp_path / "deep.json"
    p.write_text(text)
    assert main(["validate", str(p)]) == 2
    assert "input error" in capsys.readouterr().err


def test_scalar_too_long_for_int_is_input_error(fixture_dir, tmp_path, capsys):
    data = json.loads((fixture_dir / "FIX-D.json").read_text())
    data["A"]["unit"][0] = "9" * 5000
    p = tmp_path / "long.json"
    p.write_text(json.dumps(data))
    assert main(["validate", str(p)]) == 2
    assert "input error" in capsys.readouterr().err


def _fuzz_base():
    t, m = fix_dd()
    inst = Instance(
        t.A.field,
        t,
        m,
        morita={"kind": "matrix", "n": 2},
        morphism=(t.A.table[0], t.B.table[0]),  # identity matrices
    )
    return json.loads(serialize_instance(inst))


FUZZ_BASE = _fuzz_base()
FUZZ_PATHS = [(key,) for key in FUZZ_BASE] + [
    (section, key)
    for section in ("A", "B", "module", "morphism", "morita")
    for key in FUZZ_BASE[section]
] + [
    ("A", "table", 1),
    ("A", "table", 1, 0),
    ("A", "unit", 0),
    ("epsilon", 0),
    ("epsilon", 1, 1),
    ("module", "left", 0, 1),
    ("module", "right", 1, 1, 0),
    ("morphism", "f", 0),
    ("morita", "idempotent"),
]
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
    | st.sampled_from(
        ["0", "1", "-1", "1/2", "1/0", "Q", "Fp:2", "Fp:4", "matrix", "corner"]
    ),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)


@given(st.sampled_from(FUZZ_PATHS), json_values)
@settings(max_examples=400, deadline=None)
def test_parse_instance_fuzz(path, value):
    """Any JSON value in any section ends in an Instance or an input
    error, never another exception."""
    data = copy.deepcopy(FUZZ_BASE)
    section = data
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    try:
        inst = parse_instance(json.dumps(data))
    except (InstanceFormatError, ScalarError):
        return
    assert isinstance(inst, Instance)
