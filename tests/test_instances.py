"""JSON instance files: exact round-trips and hostile input."""

import json
import sys
from collections import Counter

import numpy as np
import pytest

import spandist as sd
from spandist import Field, GeneratorConfig, InstanceFormatError


def roundtrip(tmp_path, instance):
    path = tmp_path / "inst.json"
    sd.save_instance(path, instance)
    return sd.load_instance(path)


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("intervals", [False, True])
def test_roundtrip_is_exact(tmp_path, field, intervals):
    cfg = GeneratorConfig(seed=6, trials=2, dim=5, n=3, field=field,
                          conditioning=1e3, intervals=intervals)
    inst = sd.generate_instance(cfg, 1)
    back = roundtrip(tmp_path, inst)
    assert np.array_equal(back.system.rows, inst.system.rows)  # bit-exact
    assert np.array_equal(back.x.coords, inst.x.coords)
    assert back.system.field is field
    if intervals:
        assert back.intervals.gammas == inst.intervals.gammas
        assert back.intervals.Gammas == inst.intervals.Gammas
    else:
        assert back.intervals is None
    # files carry only the mathematical content, not generator provenance
    assert back.seed is None and back.trial is None


def test_object_form_uses_pairs_for_complex_scalars():
    cfg = GeneratorConfig(seed=6, trials=1, dim=3, n=2, field=Field.COMPLEX)
    obj = sd.instance_to_obj(sd.generate_instance(cfg, 0))
    first = obj["vectors"][0][0]
    assert isinstance(first, list) and len(first) == 2
    assert obj["field"] == "complex"


def test_real_instance_uses_plain_floats():
    cfg = GeneratorConfig(seed=6, trials=1, dim=3, n=2)
    obj = sd.instance_to_obj(sd.generate_instance(cfg, 0))
    assert isinstance(obj["vectors"][0][0], float)


GOOD = {
    "field": "real",
    "vectors": [[1.0, 0.0], [0.0, 1.0]],
    "x": [1.0, 2.0],
}


def _corrupt(**changes):
    obj = {k: v for k, v in GOOD.items()}
    obj.update(changes)
    return {k: v for k, v in obj.items() if v is not ...}


@pytest.mark.parametrize("obj, fragment", [
    (_corrupt(field=...), "field"),
    (_corrupt(vectors=...), "vectors"),
    (_corrupt(x=...), "x"),
    (_corrupt(field="quaternion"), "field"),
    (_corrupt(bogus=1), "bogus"),
    (_corrupt(vectors=[[1.0, 0.0], [1.0]]), "vectors[1]"),
    (_corrupt(vectors=[]), "vectors"),
    (_corrupt(vectors="nope"), "vectors"),
    (_corrupt(x=[1.0]), "x"),
    (_corrupt(x=[1.0, True]), "true"),
    (_corrupt(vectors=[[1.0, 0.0], [0.0, "one"]]), "vectors[1]"),
    (_corrupt(gammas=[0.0]), "Gammas"),
    (_corrupt(gammas=[0.0, 0.0], Gammas=[1.0]), "length"),
    (_corrupt(field="real", vectors=[[[1.0, 0.0], 0.0], [0.0, 1.0]]), "vectors[0]"),
])
def test_malformed_objects_are_rejected(obj, fragment):
    with pytest.raises(InstanceFormatError) as err:
        sd.instance_from_obj(obj)
    assert fragment.lower() in str(err.value).lower()


_BIG = 10**400  # JSON integers have no size limit
_WHAT = {"vectors": "system coordinates", "x": "vector coordinates", "gammas": "interval scalars",
         "Gammas": "interval scalars"}


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
@pytest.mark.parametrize("key", ["vectors", "x", "gammas", "Gammas"])
def test_integers_beyond_the_float_range_are_rejected(field, key):
    one = 1 if field is Field.REAL else [1, 0]
    bigs = [_BIG] if field is Field.REAL else [[_BIG, 0], [0, _BIG]]
    for big in bigs:
        obj = {"field": field.value, "vectors": [[one, one]], "x": [one, one], "gammas": [one], "Gammas": [one]}
        obj[key] = [[big, one]] if key == "vectors" else [big, one][: len(obj[key])]
        with pytest.raises(InstanceFormatError, match=f"^{_WHAT[key]} must be finite$"):
            sd.instance_from_obj(obj)
    # an entry the type screen rejects is named, past the big integer before it
    obj = {"field": field.value, "vectors": [[one, one]], "x": [bigs[0], True]}
    with pytest.raises(InstanceFormatError, match=r"x\[1\]"):
        sd.instance_from_obj(obj)


def test_complex_pair_of_wrong_length_rejected():
    obj = {"field": "complex", "vectors": [[[1.0, 0.0, 0.0]]], "x": [[0.0, 1.0]]}
    with pytest.raises(InstanceFormatError):
        sd.instance_from_obj(obj)


def test_missing_file(tmp_path):
    with pytest.raises(InstanceFormatError):
        sd.load_instance(tmp_path / "absent.json")


def test_unparseable_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InstanceFormatError):
        sd.load_instance(path)


def test_a_file_that_is_not_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(InstanceFormatError, match="utf16.json is not UTF-8"):
        sd.load_instance(path)


def test_json_nested_too_deeply_is_a_format_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000)
    with pytest.raises(InstanceFormatError, match="deep.json nests too deeply"):
        sd.load_instance(path)


def test_top_level_must_be_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(InstanceFormatError):
        sd.load_instance(path)


def test_loaded_instance_is_usable(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(GOOD))
    inst = sd.load_instance(path)
    assert inst.seed is None and inst.trial is None
    assert sd.exact_distance(inst.system, inst.x).d2 == pytest.approx(0.0, abs=1e-12)


_REAL = {"field": "real", "vectors": [[1.0, 0.0, 2], [0.5, 1.0, 0.0]], "x": [1.0, 2.0, 3.0],
         "gammas": [0.0, 1], "Gammas": [1.0, 2.0]}
_COMPLEX = {"field": "complex", "vectors": [[[1.0, 0.0], [0, 1]], [[0.5, 0.5], [1.0, -0.0]]],
            "x": [[1.0, 2.0], [3.0, 0]]}


@pytest.mark.parametrize("obj,message", [
    (dict(_REAL, vectors=[[1.0, True, 0.0], [0.0, 1.0, 0.0]]), "vectors[0][1]: expected a real number, got True"),
    (dict(_REAL, vectors=[[1.0, 0.0, 0.0], [0.0, "1.5", 0.0]]), "vectors[1][1]: expected a real number, got '1.5'"),
    (dict(_REAL, vectors=[[1.0, 0.0, 0.0], [0.0, None, 0.0]]), "vectors[1][1]: expected a real number, got None"),
    (dict(_REAL, vectors=[[1.0, 0.0, 0.0], []]), "vectors[1]: expected a nonempty array of scalars"),
    (dict(_REAL, vectors=[[1.0, 0.0, 0.0], [0.0, 1.0]]), "vectors[1] has length 2, expected 3"),
    (dict(_REAL, vectors=[[1.0, [0.0, 1.0], 0.0]]), "vectors[0][1]: expected a real number, got [0.0, 1.0]"),
    (dict(_REAL, x=[1.0, 2.0, False]), "x[2]: expected a real number, got False"),
    (dict(_REAL, gammas=[0.0, "a"]), "gammas[1]: expected a real number, got 'a'"),
    (dict(_REAL, Gammas=[0.0]), "Gammas has length 1, expected n=2"),
    (dict(_COMPLEX, vectors=[[[1.0, 0.0], [0.0, 1.0, 2.0]], [[0.5, 0.5], [1.0, 0.0]]]),
     "vectors[0][1]: complex scalars are [re, im] pairs, got [0.0, 1.0, 2.0]"),
    (dict(_COMPLEX, vectors=[[[1.0, 0.0], [0.0, True]], [[0.5, 0.5], [1.0, 0.0]]]),
     "vectors[0][1]: complex parts must be numbers, got True"),
    (dict(_COMPLEX, vectors=[[[1.0, 0.0], 1.0], [[0.5, 0.5], [1.0, 0.0]]]),
     "vectors[0][1]: complex scalars are [re, im] pairs, got 1.0"),
    (dict(_COMPLEX, x=[[1.0, 2.0], ["3", 0]]), "x[1]: complex parts must be numbers, got '3'"),
    (dict(_REAL, vectors=[[1.0, float("nan"), 0.0], [0.0, 1.0, 0.0]]), "system coordinates must be finite"),
    (dict(_REAL, gammas=[0.0, float("nan")]), "interval scalars must be finite"),
    (dict(_COMPLEX, gammas=[[0.0, 0.0], [1.0, 0.0]], Gammas=[[1.0, float("inf")], [2.0, 0.0]]),
     "interval scalars must be finite"),
])
def test_screened_loading_names_the_bad_entry(obj, message):
    # the entry types are screened in bulk; a failed screen walks the entries
    # so that the message names the first bad one, as a per-entry decode did
    with pytest.raises(InstanceFormatError) as err:
        sd.instance_from_obj(json.loads(json.dumps(obj)))
    assert str(err.value) == message


def test_screened_loading_keeps_every_bit():
    real = sd.instance_from_obj(_REAL)
    assert real.system.rows.tolist() == [[1.0, 0.0, 2.0], [0.5, 1.0, 0.0]]
    assert real.intervals == sd.IntervalData(gammas=(0.0, 1.0), Gammas=(1.0, 2.0))
    assert all(type(v) is float for v in real.intervals.gammas)
    cplx = sd.instance_from_obj(_COMPLEX)
    assert cplx.system.rows.tolist() == [[1 + 0j, 1j], [0.5 + 0.5j, 1 - 0j]]
    assert np.signbit(cplx.system.rows[1, 1].imag)
    assert cplx.x.coords.tolist() == [1 + 2j, 3 + 0j]


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_loading_checks_each_array_once_and_the_report_none(monkeypatch, field):
    # one field_array call for the system, one for x and one per interval
    # array; the report reads the interval arrays the loader kept
    generated = sd.generate_instance(GeneratorConfig(seed=3, trials=1, dim=6, n=3, field=field, intervals=True), 0)
    expected = sd.full_bound_report(generated.system, generated.x, intervals=generated.intervals)
    original = sd.space.field_array
    calls = []

    def counted(values, field, what):
        calls.append(what)
        return original(values, field, what)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "spandist" and getattr(module, "field_array", None) is original:
            monkeypatch.setattr(module, "field_array", counted)
    inst = sd.instance_from_obj(sd.instance_to_obj(generated))
    assert Counter(calls) == {"system coordinates": 1, "vector coordinates": 1, "interval scalars": 2}
    calls.clear()
    report = sd.full_bound_report(inst.system, inst.x, intervals=inst.intervals)
    assert calls == []
    assert len(report.entries) == 9
    assert report == expected
    assert inst.intervals == generated.intervals


# -- the bytes of a saved file ----------------------------------------------------


def _reference_obj(instance):
    # one Python call per scalar, as the encoding was first written
    field = instance.system.field

    def scalar(value):
        if field is Field.REAL:
            return float(np.real(value))
        z = complex(value)
        return [z.real, z.imag]

    obj = {"field": field.value, "vectors": [[scalar(v) for v in row] for row in instance.system.rows],
           "x": [scalar(v) for v in instance.x.coords]}
    if instance.intervals is not None:
        obj["gammas"] = [scalar(v) for v in instance.intervals.gammas]
        obj["Gammas"] = [scalar(v) for v in instance.intervals.Gammas]
    return obj


# the largest float sits in x and the interval data: in a system vector it
# would overflow the Gram matrix that loading builds
_MAX_FLOAT = 1.7976931348623157e308
_HAND_BUILT = [
    {"field": "real", "vectors": [[-0.0, 5e-324, 3, 1.5], [1, -0.0, 2.5, -5e-324]], "x": [0, _MAX_FLOAT, -2, -_MAX_FLOAT]},
    {"field": "real", "vectors": [[-0.0, 5e-324, 3, 1.5], [1, -0.0, 2.5, -5e-324]], "x": [0, _MAX_FLOAT, -2, -_MAX_FLOAT],
     "gammas": [-0.0, 2], "Gammas": [5e-324, _MAX_FLOAT]},
    {"field": "complex", "vectors": [[[-0.0, 5e-324], [3, -0.0]], [[2, 0], [1, 2]]], "x": [[0, -0.0], [_MAX_FLOAT, 5e-324]]},
    {"field": "complex", "vectors": [[[-0.0, 5e-324], [3, -0.0]], [[2, 0], [1, 2]]], "x": [[0, -0.0], [_MAX_FLOAT, 5e-324]],
     "gammas": [[-0.0, 0], [1, 2]], "Gammas": [[5e-324, -0.0], [_MAX_FLOAT, 4]]},
]


def _generated_and_hand_built():
    for field in Field:
        for intervals in (False, True):
            for dim, n in ((2, 1), (2, 2), (5, 3)):
                yield sd.generate_instance(GeneratorConfig(seed=dim + n, trials=1, dim=dim, n=n, field=field,
                                                           conditioning=1e3, intervals=intervals), 0)
    for obj in _HAND_BUILT:
        yield sd.instance_from_obj(obj)


@pytest.mark.parametrize("instance", list(_generated_and_hand_built()))
def test_a_saved_file_is_the_stdlib_document(tmp_path, instance):
    path = tmp_path / "inst.json"
    sd.save_instance(path, instance)
    obj = sd.instance_to_obj(instance)
    assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode()
    # the same floats, of the same types and signs, as a per-scalar encoding
    assert repr(obj) == repr(_reference_obj(instance))
    assert list(obj) == ["field", "vectors", "x"] + (["gammas", "Gammas"] if instance.intervals else [])


def test_hand_built_edge_values_survive_a_save(tmp_path):
    inst = sd.instance_from_obj(_HAND_BUILT[3])
    back = roundtrip(tmp_path, inst)
    assert np.array_equal(back.system.rows, inst.system.rows)
    assert np.signbit(back.system.rows[0, 0].real) and np.signbit(back.x.coords[0].imag)
    assert back.system.rows[0, 0].imag == 5e-324 and back.x.coords[1].real == _MAX_FLOAT
    assert repr(back.intervals) == repr(inst.intervals)


def test_saving_rejects_interval_data_that_does_not_fit_the_system(tmp_path):
    # the file would not load (wrong length) or would lose the imaginary parts
    inst = sd.generate_instance(GeneratorConfig(seed=1, trials=1, dim=3, n=2, intervals=True), 0)
    short = sd.IntervalData(gammas=(0.0,), Gammas=(1.0,))
    imaginary = sd.IntervalData(gammas=(0.0, 1j), Gammas=(1.0, 2.0))
    for intervals, error in ((short, sd.DimensionMismatchError), (imaginary, sd.FieldMismatchError)):
        with pytest.raises(error):
            sd.save_instance(tmp_path / "bad.json", sd.Instance(system=inst.system, x=inst.x, intervals=intervals))
    assert not (tmp_path / "bad.json").exists()
