import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spandist as sd
from spandist import Field, GeneratorConfig, reports
from spandist.checks import REGISTRY


@pytest.fixture
def campaign_result():
    cfg = GeneratorConfig(seed=12, trials=5, dim=4, n=2, intervals=True)
    return sd.run_campaign(cfg)


@pytest.fixture
def report(system_b, x_b):
    return sd.full_bound_report(system_b, x_b)


def test_unknown_format_rejected(report):
    with pytest.raises(ValueError):
        sd.render_bound_report(report, "xml")


def test_bound_report_csv_parses_back(report):
    text = sd.render_bound_report(report, "csv")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert {r["method"] for r in rows} == (
        {m.value for m in sd.bounds.UNCONDITIONAL_METHODS} | {"exact_d2"})
    by_method = {r["method"]: r for r in rows}
    # repr-formatted floats reparse to the same double
    assert float(by_method["exact_d2"]["value"]) == report.exact_d2
    assert float(by_method["total_norm"]["value"]) == report.entry(
        sd.BoundMethod.TOTAL_NORM).value


def test_bound_report_json_shape(report):
    obj = json.loads(sd.render_bound_report(report, "json"))
    assert obj["exact_d2"] == report.exact_d2
    assert len(obj["bounds"]) == len(report.entries)
    assert all(set(b) == {"method", "value", "slack", "tightness", "strict_expected"}
               for b in obj["bounds"])


def test_bound_report_human_mentions_every_method(report):
    text = sd.render_bound_report(report, "human")
    for m in sd.bounds.UNCONDITIONAL_METHODS:
        assert m.value in text


def test_distance_json_beta_as_pairs():
    z = sd.vector([1j, 1.0])
    system = sd.VectorSystem([z])
    x = sd.vector([1.0 + 0.5j, 0.5])
    obj = json.loads(sd.render_distance(sd.exact_distance(system, x), fmt="json"))
    dist = obj["distance"]
    assert isinstance(dist["beta"][0], list) and len(dist["beta"][0]) == 2
    assert dist["d2_quadratic"] == pytest.approx(dist["d2_gram_ratio"], rel=1e-8)


def test_campaign_json_is_environment_free(campaign_result):
    obj = json.loads(sd.render_campaign(campaign_result, "json"))
    assert "runtime" not in json.dumps(obj)
    assert obj["passed"] is True
    assert obj["config"]["seed"] == 12
    # keys are sorted for byte stability
    dumped = sd.render_campaign(campaign_result, "json")
    assert dumped == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name, scalar, number", [
    ("conditioning", np.float32(10), 10.0),
    ("conditioning", np.float16(10), 10.0),
    ("conditioning", np.int64(10), 10),
    ("dependent_fraction", np.int8(0), 0),
    ("dependent_fraction", np.float64(0.25), 0.25),
])
def test_a_numpy_scalar_config_renders_as_its_python_number(name, scalar, number):
    base = dict(seed=3, trials=4, dim=5, n=3)
    config = GeneratorConfig(**base, **{name: scalar})
    assert type(getattr(config, name)) is type(number) and config == GeneratorConfig(**base, **{name: number})
    for fmt in ("json", "csv", "human"):
        assert sd.render_campaign(sd.run_campaign(config), fmt) == sd.render_campaign(
            sd.run_campaign(GeneratorConfig(**base, **{name: number})), fmt
        )


def test_campaign_csv_lists_every_check(campaign_result):
    text = sd.render_campaign(campaign_result, "csv")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert {r["check_id"] for r in rows} == set(campaign_result.counts)
    for r in rows:
        assert int(r["count"]) == campaign_result.counts[r["check_id"]]


def test_campaign_human_has_verdict_line(campaign_result):
    text = sd.render_campaign(campaign_result, "human")
    assert "PASS" in text
    assert "trials" in text


def test_hadamard_render(system_b):
    chains = [sd.hadamard_chain(system_b, v) for v in sd.ChainVariant]
    strict = sd.check_hadamard_strict(system_b)
    human = sd.render_hadamard(chains, strict, "human")
    for v in sd.ChainVariant:
        assert v.value in human
    obj = json.loads(sd.render_hadamard(chains, strict, "json"))
    assert len(obj["chains"]) == 4
    assert obj["strict"]["strict"] is True


# -- the JSON writer: the bytes of json.dumps(obj, sort_keys=True, indent=2) ---------


def _stdlib(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_KEYS = st.text(st.characters(), max_size=8) | st.sampled_from(
    ["", "é", "\u2603", "\x00", "\t\n\"\\", "a,b", "[x]", "{y}", "\ud800",
     "combination_sweep/diag_offdiag[holder,holder](p=1.5)/holds"])
_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 2.2250738585072009e-308, 1e308, 1.7976931348623157e308])
_INTS = st.integers() | st.integers(min_value=2**63, max_value=2**200) | st.integers(max_value=-(2**63), min_value=-(2**200))
_LEAVES = _FLOATS | _INTS | st.booleans() | st.none() | _KEYS
# float-only lists and [re, im] pair lists, the writer's joined fast paths;
# an np.float64 item sends its list down the generic path
_FLOAT_ITEMS = _FLOATS | _FLOATS.map(np.float64)
_FLOAT_LISTS = st.lists(_FLOAT_ITEMS, max_size=6) | st.lists(st.lists(_FLOAT_ITEMS, min_size=2, max_size=2), max_size=4)
_JSON_LIKE = st.recursive(
    _LEAVES | _FLOAT_LISTS | _FLOAT_LISTS.map(tuple) | st.sampled_from([[], {}, (), [[]], {"": {}}, ([], ())]),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_KEYS, children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_LIKE)
def test_the_json_writer_emits_the_stdlib_bytes(obj):
    assert reports._json(obj) == _stdlib(obj)
    assert reports._json(obj, sort_keys=False) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("obj", [{1: 2.0}, {"a": np.int64(1)}, [1j], {"a": object()}, {"s": {1, 2}}, b"x"])
def test_the_json_writer_rejects_what_is_not_json(obj):
    for sort_keys in (True, False):
        with pytest.raises(TypeError):
            reports._json(obj, sort_keys)


@pytest.mark.parametrize("obj, writes", [
    ([1.0, -0.0, float("nan"), float("-inf")], 1),
    ([[1.0, float("inf")], [5e-324, -0.0]], 1),
    ((1.0, 2.0), 1),
    ([np.float64(1.0), 2.0], 3),
    ([np.float64(1.0), np.float64("nan")], 3),
    ([[np.float64(1.0), 2.0]], 4),
    ([1.0, 2], 3),
    ([[1.0, 2.0], [3.0]], 3),
    ([(1.0, 2.0)], 2),
])
def test_only_exact_floats_take_the_joined_paths(monkeypatch, obj, writes):
    # a joined list is one _write call; any other item is written by its own
    calls = []
    original = reports._write

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(reports, "_write", counted)
    for sort_keys in (True, False):
        calls.clear()
        assert reports._json(obj, sort_keys) == _stdlib(obj)
        assert len(calls) == writes


def test_every_rendered_json_is_the_stdlib_document(monkeypatch):
    def bad(instance, tol):
        values = (("nan", float("nan")), ("inf", float("inf")), ("neg zero", -0.0), ("é,[1]", 1e308))
        return [sd.CheckOutcome("bad/é,[\"x\"]\t", False, -1.0, values)]

    monkeypatch.setitem(REGISTRY, "bad", bad)
    config = GeneratorConfig(seed=12, trials=5, dim=4, n=2, intervals=True)
    campaign = sd.run_campaign(config, sd.campaign.applicable_checks(config) + ("bad",))
    assert campaign.failures and campaign.counts["combination_sweep/diag_offdiag[holder,holder](p=1.5)/holds"]
    inst = sd.generate_instance(GeneratorConfig(seed=5, trials=1, dim=5, n=3, field=Field.COMPLEX, intervals=True), 0)
    s, x = inst.system, inst.x
    distance, bound_report = sd.exact_distance(s, x), sd.full_bound_report(s, x, inst.intervals)
    chains, strict = [sd.hadamard_chain(s, v) for v in sd.ChainVariant], sd.check_hadamard_strict(s)

    def documents():
        return [
            sd.render_distance(distance, fmt="json"),
            sd.render_distance(distance, bound_report, "json"),
            sd.render_bound_report(bound_report, "json"),
            sd.render_hadamard(chains, fmt="json"),
            sd.render_hadamard(chains, strict, "json"),
            sd.render_campaign(campaign, "json"),
        ]

    ours = documents()
    monkeypatch.setattr(reports, "_json", _stdlib)
    assert documents() == ours


# -- csv and human output no other test renders --------------------------------------


def test_hadamard_csv_parses_back(system_b):
    chains = [sd.hadamard_chain(system_b, v) for v in sd.ChainVariant]
    text = sd.render_hadamard(chains, sd.check_hadamard_strict(system_b), "csv")
    assert text.startswith("variant,gram_det,refined,norm_product,lower_ok,upper_ok\n")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [r["variant"] for r in rows] == [v.value for v in sd.ChainVariant]
    for r, c in zip(rows, chains):
        assert (float(r["gram_det"]), float(r["refined"]), float(r["norm_product"])) == (
            c.gram_det, c.refined, c.norm_product)
        assert (r["lower_ok"], r["upper_ok"]) == (str(c.lower_ok), str(c.upper_ok)) == ("True", "True")


def test_distance_csv_without_a_report_is_the_three_distances(system_b, x_b):
    result = sd.exact_distance(system_b, x_b)
    text = sd.render_distance(result, None, "csv")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [r["method"] for r in rows] == ["d2_gram_ratio", "d2_quadratic", "d2_projection"]
    assert [float(r["value"]) for r in rows] == [result.d2_gram_ratio, result.d2_quadratic, result.d2_projection]
    assert all(r["slack"] == r["tightness"] == "" for r in rows)
    with_report = sd.render_distance(result, sd.full_bound_report(system_b, x_b), "csv")
    assert with_report.endswith(text.split("\n", 1)[1]) and len(with_report) > len(text)


def _fails_often(instance, tol):
    # one id fails on every trial, the other on odd trials only
    odd = instance.trial % 2 == 1
    return [sd.CheckOutcome("planted/always", False, -1.0, (("trial", float(instance.trial)),)),
            sd.CheckOutcome("planted/odd", not odd, -2.0 if odd else 3.0, ())]


def test_campaign_reports_count_the_failures_of_each_id(monkeypatch):
    monkeypatch.setitem(REGISTRY, "planted", _fails_often)
    result = sd.run_campaign(GeneratorConfig(seed=12, trials=9, dim=4, n=2), ("planted", "lagrange_identity"))
    assert len(result.failures) == 9 + 4
    rows = {r["check_id"]: r for r in csv.DictReader(io.StringIO(sd.render_campaign(result, "csv")))}
    assert {k: (int(r["count"]), int(r["failures"])) for k, r in rows.items()} == {
        "lagrange_identity/residual": (9, 0), "planted/always": (9, 9), "planted/odd": (9, 4)}
    assert float(rows["planted/odd"]["worst_margin"]) == -2.0
    human = sd.render_campaign(result, "human").splitlines()
    assert "FAILURES: 13" in human and human[-1] == "FAIL"
    listed = [line for line in human if line.startswith("  trial ")]
    assert listed[0] == "  trial 0  planted/always  margin -1.000e+00" and len(listed) == 10
    assert human[human.index(listed[-1]) + 1] == "  ... and 3 more"
