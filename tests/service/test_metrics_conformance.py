"""/metrics exposition-format conformance (Prometheus text 0.0.4).

Parses the full exposition from a live server after exercising the op,
sweep and trace paths, and checks the contract a scraper relies on:
every sample belongs to a family with exactly one HELP and one TYPE
line (declared before its samples), histogram families carry the
``_bucket``/``_sum``/``_count`` triplet with a ``+Inf`` bucket, and the
response advertises the text-format content type.
"""

import http.client
import json
import re

import pytest

from repro.service import ServiceConfig, ServiceThread

SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$"
)
HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


@pytest.fixture(scope="module")
def exposition():
    config = ServiceConfig(port=0, linger_ms=0.5)
    with ServiceThread(config) as thread:
        conn = http.client.HTTPConnection("127.0.0.1", thread.port, timeout=30)
        try:
            # Touch the major paths so every instrument family has data.
            body = json.dumps(
                {"a": "0x3f800000", "b": "0x40000000", "format": "fp32"}
            ).encode()
            conn.request("POST", "/v1/op/mul", body=body,
                         headers={"Content-Type": "application/json"})
            conn.getresponse().read()
            conn.request("GET", "/v1/kernel/matmul?n=4")
            conn.getresponse().read()
            conn.request("GET", "/metrics")
            resp = conn.getresponse()
            text = resp.read().decode()
            content_type = resp.getheader("Content-Type")
        finally:
            conn.close()
    return text, content_type


def parse(text):
    """Returns (helps, types, samples): declared families and samples."""
    helps, types, samples = {}, {}, []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            assert name not in helps, f"duplicate HELP for {name}"
            helps[name] = help_text
        elif line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            assert name not in types, f"duplicate TYPE for {name}"
            types[name] = kind
        else:
            assert not line.startswith("#"), f"unknown comment: {line!r}"
            match = SAMPLE_RE.match(line)
            assert match, f"unparseable sample at line {lineno}: {line!r}"
            samples.append((match.group(1), match.group(2), match.group(3)))
    return helps, types, samples


def family_of(sample_name, types):
    if sample_name in types:
        return sample_name
    for suffix in HISTOGRAM_SUFFIXES:
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if types.get(base) == "histogram":
                return base
    return None


def test_content_type_is_text_format(exposition):
    _, content_type = exposition
    assert content_type == "text/plain; version=0.0.4"


def test_every_sample_has_a_declared_family(exposition):
    text, _ = exposition
    helps, types, samples = parse(text)
    assert samples, "empty exposition"
    for name, _labels, _value in samples:
        family = family_of(name, types)
        assert family is not None, f"sample {name} has no TYPE declaration"
        assert family in helps, f"family {family} has no HELP line"
        assert types[family] in ("counter", "gauge", "histogram")


def test_families_declare_before_first_sample(exposition):
    text, _ = exposition
    _, types, _ = parse(text)
    seen_types = set()
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            seen_types.add(line[len("# TYPE "):].split(" ")[0])
        elif line.strip() and not line.startswith("#"):
            name = SAMPLE_RE.match(line).group(1)
            family = family_of(name, types)
            assert family in seen_types, (
                f"sample {name} appears before its TYPE declaration"
            )


def test_every_declared_family_is_well_formed(exposition):
    text, _ = exposition
    helps, types, _ = parse(text)
    assert set(helps) == set(types), (
        "HELP/TYPE mismatch: "
        f"{set(helps).symmetric_difference(set(types))}"
    )
    for name, help_text in helps.items():
        assert help_text.strip(), f"family {name} has an empty HELP"


def test_histograms_carry_complete_triplets(exposition):
    text, _ = exposition
    _, types, samples = parse(text)
    names = [name for name, _, _ in samples]
    labels_by_name = {}
    for name, labels, _ in samples:
        labels_by_name.setdefault(name, []).append(labels or "")
    for family, kind in types.items():
        if kind != "histogram":
            continue
        assert f"{family}_bucket" in names, f"{family} has no buckets"
        assert f"{family}_sum" in names
        assert f"{family}_count" in names
        inf_buckets = [
            l for l in labels_by_name[f"{family}_bucket"] if 'le="+Inf"' in l
        ]
        assert inf_buckets, f"{family} lacks a +Inf bucket"


def test_values_parse_as_floats(exposition):
    text, _ = exposition
    _, _, samples = parse(text)
    for name, _labels, value in samples:
        float(value)  # raises on malformed values


def test_expected_families_are_present(exposition):
    text, _ = exposition
    _, types, _ = parse(text)
    for family in (
        "repro_requests_total",
        "repro_request_latency_seconds",
        "repro_stage_latency_seconds",
        "repro_batch_size",
        "repro_queue_depth",
        "repro_queue_depth_max",
        "repro_uptime_seconds",
    ):
        assert family in types, f"{family} missing from exposition"
    # Lane dtypes are a span tag, not a metric family.
    assert not [f for f in types if "packing" in f or "packed" in f], types
