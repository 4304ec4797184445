"""Instance files read each distinct scalar literal once per parse, with
the values, types and errors of a parse of every leaf."""

import json

import pytest

from hochschild import serialize
from hochschild.algebra import matrix_triple
from hochschild.cli import main
from hochschild.errors import InstanceFormatError
from hochschild.fields import GF, Field
from hochschild.fixtures import fix_p3, random_instances
from hochschild.serialize import Instance, parse_instance, serialize_instance

FIELDS = [None, GF(2), GF(3), GF(1009)]
FIELD_IDS = ["file", "GF2", "GF3", "GF1009"]
SCALAR_SECTIONS = [
    ("A", "table"),
    ("A", "unit"),
    ("B", "table"),
    ("B", "unit"),
    ("epsilon",),
    ("module", "left"),
    ("module", "right"),
]


@pytest.fixture(scope="module")
def texts(tmp_path_factory):
    """The files `hochschild fixtures` writes, and 2x2 lifts of FIX-P3 and
    of random triples, some with non-integer constants."""
    outdir = tmp_path_factory.mktemp("fixtures")
    assert main(["fixtures", "--outdir", str(outdir)]) == 0
    out = {p.stem: p.read_text() for p in sorted(outdir.glob("*.json"))}
    assert len(out) == 8
    cases = [("FIX-P3", fix_p3())] + [
        (f"random-{k}", case)  # "1/2" and "2/3" among them
        for k, case in enumerate(random_instances(1, 4))
    ]
    for name, (t, m) in cases:
        lifted, lift = matrix_triple(t, 2)
        out[f"{name}-M2"] = serialize_instance(Instance(t.A.field, lifted, lift(m)))
    return out


def reference_parse(text, field, monkeypatch):
    """parse_instance with `field.parse` run on every scalar leaf."""

    def every_leaf(literals, s):
        if not isinstance(s, str):
            raise InstanceFormatError(f"scalar must be a string, got {s!r}")
        return literals.field.parse(s)

    with monkeypatch.context() as patch:
        patch.setattr(serialize, "_parse_scalar", every_leaf)
        return parse_instance(text, field_override=field)


def outcome(parse):
    """The parsed scalars with their types, or the error message."""
    try:
        inst = parse()
    except InstanceFormatError as exc:
        return str(exc)
    t, m = inst.triple, inst.module
    matrices = (t.A.products, t.B.products, t.eps.sparse, m.left_action, m.right_action)
    entries = [
        [sorted((r, v, type(v)) for r, v in mat.column(j).items()) for j in range(mat.cols)]
        for mat in matrices
    ]
    units = [[(v, type(v)) for v in a.unit] for a in (t.A, t.B)]
    return inst.field, entries, units


def section(data, path):
    for key in path:
        data = data[key]
    return data


def leaves(data):
    if isinstance(data, list):
        for item in data:
            yield from leaves(item)
    else:
        yield data


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_parse_equals_a_parse_of_every_leaf(texts, field, monkeypatch):
    raised = 0
    for name, text in texts.items():
        got = outcome(lambda: parse_instance(text, field_override=field))
        assert got == outcome(lambda: reference_parse(text, field, monkeypatch)), name
        raised += isinstance(got, str)
    assert bool(raised) == (field in (GF(2), GF(3)))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_a_literal_with_no_image_raises_as_a_parse_of_every_leaf(texts, field, monkeypatch):
    data = json.loads(texts["FIX-DD-M2"])
    section(data, ("module", "left"))[-1][-1][-1] = "1/1009"
    text = json.dumps(data)
    got = outcome(lambda: parse_instance(text, field_override=field))
    assert got == outcome(lambda: reference_parse(text, field, monkeypatch))
    if field == GF(1009):
        assert got == "1/1009 has no image in GF(1009)"
    else:
        assert not isinstance(got, str)


@pytest.mark.parametrize("value", [0, None, ["0"], {"0": "1"}], ids=["int", "null", "list", "object"])
@pytest.mark.parametrize("path", SCALAR_SECTIONS, ids=lambda p: ".".join(p))
def test_a_non_string_scalar_is_refused_before_its_lookup(texts, path, value):
    data = json.loads(texts["FIX-DD-M2"])
    target = section(data, path)
    while isinstance(target[-1], list):
        target = target[-1]
    target[-1] = value
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(json.dumps(data))
    assert str(err.value) == f"scalar must be a string, got {value!r}"


@pytest.mark.parametrize(
    "literal, message",
    [
        ("1/0", "zero denominator in '1/0'"),
        ("x", "bad scalar literal 'x'"),
        ("1.5", "bad scalar literal '1.5'"),
        ("9" * 5000, "scalar literal too long: 5000 characters"),
    ],
    ids=["zero-denominator", "letter", "decimal", "too-long"],
)
def test_a_bad_literal_after_thousands_of_zeros_raises_its_message(texts, literal, message):
    data = json.loads(texts["FIX-P3-M2"])
    read_before = [leaves(section(data, path)) for path in SCALAR_SECTIONS[:-1]]
    assert sum(v == "0" for vs in read_before for v in vs) > 3000
    section(data, ("module", "left"))[-1][-1][-1] = literal
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(json.dumps(data))
    assert str(err.value) == message


def test_each_distinct_literal_is_parsed_once_per_call(texts, monkeypatch):
    text = texts["FIX-DD-M2"]
    data = json.loads(text)
    distinct = {v for path in SCALAR_SECTIONS for v in leaves(section(data, path))}
    calls = []
    parse = Field.parse

    def counted(self, s):
        calls.append(s)
        return parse(self, s)

    monkeypatch.setattr(Field, "parse", counted)
    for repeat in (1, 2):  # no table outlives its call
        parse_instance(text)
        assert sorted(calls) == sorted(list(distinct) * repeat)
