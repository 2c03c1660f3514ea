"""Rendering results as human text, CSV, or JSON.

Machine formats (csv/json) are deterministic: floats use shortest
round-trip repr, keys are sorted, and volatile data (wall-clock runtime)
is omitted, so identical computations yield byte-identical documents.

JSON, in reports and instance files, is written by a short recursive writer
rather than ``json.dumps``, whose ``indent`` turns off the C encoder. Its
output is byte for byte ``json.dumps(obj, sort_keys=True, indent=2) + "\n"``
(without ``sort_keys`` in the insertion-order mode of instance files): keys
must be ``str``, floats go through ``float.__repr__`` (non-finite ones as
``NaN``, ``Infinity`` and ``-Infinity``; a list of exact floats, or of
``[re, im]`` pairs of them, in one ``str.join``), strings through
``json.encoder.encode_basestring_ascii``, tuples render as lists, empty
containers as ``{}`` and ``[]``, and any other type raises ``TypeError``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import fields
from enum import Enum
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any

from .bounds import BoundReport
from .campaign import CampaignResult
from .distance import DistanceResult
from .hadamard import HadamardChainResult, HadamardStrictVerdict

__all__ = [
    "FORMATS",
    "render_bound_report",
    "render_distance",
    "render_campaign",
    "render_hadamard",
]

FORMATS = ("human", "csv", "json")


def _fmt(value: float) -> str:
    return repr(float(value))


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")


def _json(obj: Any, sort_keys: bool = True) -> str:
    """``json.dumps(obj, sort_keys=sort_keys, indent=2) + "\n"``, byte for byte."""
    out: list[str] = []
    _write(obj, "\n", out, sorted if sort_keys else iter)
    out.append("\n")
    return "".join(out)


def _spelled(text: str) -> str:
    """Float reprs (and JSON punctuation) with nan and inf spelled as JSON
    spells them; the letter n is in no finite repr and no separator."""
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


def _write(obj: Any, newline: str, out: list[str], keys: Any) -> None:
    """Append the JSON of ``obj`` to ``out``; ``newline`` is the line break and
    indent of the line ``obj`` starts on, ``keys`` (sorted or iter) orders a dict."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_spelled(float.__repr__(obj)))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        types = set(map(type, obj))  # exact floats, or [re, im] pairs of them, are screened and joined at C speed
        if types == {float}:
            out.append("[" + inner + _spelled(("," + inner).join(map(float.__repr__, obj))) + newline + "]")
            return
        if types == {list} and set(map(len, obj)) == {2} and set(map(type, chain.from_iterable(obj))) == {float}:
            deeper = inner + "  "
            parts = map(float.__repr__, chain.from_iterable(obj))
            pairs = (inner + "]," + inner + "[" + deeper).join(map(("," + deeper).join, zip(parts, parts)))
            out.append("[" + inner + "[" + deeper + _spelled(pairs) + inner + "]" + newline + "]")
            return
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, inner, out, keys)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in keys(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(obj[key], inner, out, keys)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# -- bound reports ---------------------------------------------------------


@cache
def _fields_of(cls: type) -> tuple[str, ...]:
    """A dataclass's field names."""
    return tuple(f.name for f in fields(cls))


def _fields_obj(dc: Any) -> dict[str, Any]:
    """A flat dataclass's fields as a dict, without ``asdict``'s deep copy;
    an Enum as its value."""
    obj = {name: getattr(dc, name) for name in _fields_of(type(dc))}
    return {name: v.value if isinstance(v, Enum) else v for name, v in obj.items()}


def _bound_report_obj(report: BoundReport) -> dict[str, Any]:
    return {"exact_d2": report.exact_d2, "bounds": [_fields_obj(e) for e in report.entries]}


def render_bound_report(report: BoundReport, fmt: str = "human") -> str:
    _check_format(fmt)
    if fmt == "json":
        return _json(_bound_report_obj(report))
    if fmt == "csv":
        lines = ["method,value,slack,tightness"]
        lines.append(f"exact_d2,{_fmt(report.exact_d2)},{_fmt(0.0)},{_fmt(0.0)}")
        for e in report.entries:
            lines.append(f"{e.method.value},{_fmt(e.value)},{_fmt(e.slack)},{_fmt(e.tightness)}")
        return "\n".join(lines) + "\n"
    width = max(len(e.method.value) for e in report.entries)
    lines = [f"exact squared distance: {report.exact_d2:.12g}"]
    for e in report.entries:
        star = " (never sharp here)" if e.strict_expected else ""
        lines.append(
            f"  {e.method.value:<{width}}  value={e.value:.12g}  slack={e.slack:.3e}"
            f"  tightness={e.tightness:.3e}{star}"
        )
    return "\n".join(lines) + "\n"


# -- distance results --------------------------------------------------------


def _distance_obj(result: DistanceResult) -> dict[str, Any]:
    obj = _fields_obj(result)
    obj["beta"] = [[complex(b).real, complex(b).imag] for b in result.beta]
    return obj


def render_distance(result: DistanceResult, report: BoundReport | None = None, fmt: str = "human") -> str:
    _check_format(fmt)
    if fmt == "json":
        obj: dict[str, Any] = {"distance": _distance_obj(result)}
        if report is not None:
            obj["bound_report"] = _bound_report_obj(report)
        return _json(obj)
    if fmt == "csv":
        # the tabular payload is the bound table; distance flags ride along as rows
        base = render_bound_report(report, "csv") if report is not None else "method,value,slack,tightness\n"
        extra = [
            f"d2_gram_ratio,{_fmt(result.d2_gram_ratio)},,",
            f"d2_quadratic,{_fmt(result.d2_quadratic)},,",
            f"d2_projection,{_fmt(result.d2_projection)},,",
        ]
        return base + "\n".join(extra) + "\n"
    lines = [
        f"squared distance (quadratic form):   {result.d2_quadratic:.12g}",
        f"squared distance (determinant ratio): {result.d2_gram_ratio:.12g}",
        f"projection quotient (upper estimate): {result.d2_projection:.12g}",
        f"representations agree: {result.agreement_ok}   projection matches: {result.projection_matches}",
        f"x in span: {result.in_subspace}   x orthogonal to span: {result.in_orth_complement}",
        f"gram condition: {result.gram_condition:.6g}   numerical warning: {result.numerical_warning}",
    ]
    text = "\n".join(lines) + "\n"
    if report is not None:
        text += render_bound_report(report, "human")
    return text


# -- campaigns ---------------------------------------------------------------


def _campaign_obj(result: CampaignResult) -> dict[str, Any]:
    return {
        "config": _fields_obj(result.config),
        "checks": list(result.checks),
        "counts": result.counts,
        "worst_margin": result.worst_margin,
        "failures": [{**_fields_obj(f), "values": dict(f.values)} for f in result.failures],
        "passed": result.passed,
    }


def render_campaign(result: CampaignResult, fmt: str = "human") -> str:
    _check_format(fmt)
    if fmt == "json":
        return _json(_campaign_obj(result))
    if fmt == "csv":
        # check ids may contain commas (parametrised sweep labels), so go
        # through csv.writer for quoting instead of joining by hand
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check_id", "count", "worst_margin", "failures"])
        failure_counts: dict[str, int] = {}
        for f in result.failures:
            failure_counts[f.check_id] = failure_counts.get(f.check_id, 0) + 1
        for check_id in result.counts:
            writer.writerow(
                [
                    check_id,
                    result.counts[check_id],
                    _fmt(result.worst_margin[check_id]),
                    failure_counts.get(check_id, 0),
                ]
            )
        return buf.getvalue()
    cfg = result.config
    lines = [
        f"campaign: seed={cfg.seed} trials={cfg.trials} dim={cfg.dim} n={cfg.n} "
        f"field={cfg.field.value} conditioning={cfg.conditioning:g}"
        + (" orthonormal" if cfg.orthonormal else "")
        + (" intervals" if cfg.intervals else ""),
        f"checks: {', '.join(result.checks)}",
        f"outcomes: {result.total_outcomes} across {len(result.counts)} check ids",
    ]
    worst_pairs = sorted(result.worst_margin.items(), key=lambda kv: kv[1])[:5]
    for check_id, margin in worst_pairs:
        lines.append(f"  tightest: {check_id}  worst margin {margin:.3e}")
    if result.failures:
        lines.append(f"FAILURES: {len(result.failures)}")
        for f in result.failures[:10]:
            lines.append(f"  trial {f.trial}  {f.check_id}  margin {f.margin:.3e}")
        if len(result.failures) > 10:
            lines.append(f"  ... and {len(result.failures) - 10} more")
    lines.append(f"runtime: {result.runtime:.2f}s")
    lines.append("PASS" if result.passed else "FAIL")
    return "\n".join(lines) + "\n"


# -- chain refinements ---------------------------------------------------------


def render_hadamard(
    chains: list[HadamardChainResult],
    strict: HadamardStrictVerdict | None = None,
    fmt: str = "human",
) -> str:
    _check_format(fmt)
    if fmt == "json":
        obj: dict[str, Any] = {"chains": [_fields_obj(c) for c in chains]}
        if strict is not None:
            obj["strict"] = _fields_obj(strict)
        return _json(obj)
    if fmt == "csv":
        lines = ["variant,gram_det,refined,norm_product,lower_ok,upper_ok"]
        for c in chains:
            lines.append(
                f"{c.variant.value},{_fmt(c.gram_det)},{_fmt(c.refined)},{_fmt(c.norm_product)},"
                f"{c.lower_ok},{c.upper_ok}"
            )
        return "\n".join(lines) + "\n"
    lines = []
    for c in chains:
        status = "ok" if (c.lower_ok and c.upper_ok) else "VIOLATED"
        lines.append(
            f"{c.variant.value:<18} det={c.gram_det:.12g} <= refined={c.refined:.12g} "
            f"<= product={c.norm_product:.12g}  [{status}]"
        )
    if strict is not None:
        lines.append(
            f"strict gap: margin={strict.margin:.6g} strict={strict.strict}"
        )
    return "\n".join(lines) + "\n"
