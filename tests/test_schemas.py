"""Every JSON document the CLI emits validates against ``schemas/``.

The schemas reference each other by sibling-relative ``$ref``; the
registry is built from the local files only, so nothing is fetched.
"""

import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from grasscat.cli import main

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def _registry() -> Registry:
    resources = []
    for path in sorted(SCHEMA_DIR.glob("*.schema.json")):
        schema = json.loads(path.read_text())
        resources.append((schema["$id"], Resource.from_contents(schema)))
    return Registry().with_resources(resources)


REGISTRY = _registry()


def schema_errors(doc, name: str) -> list[str]:
    schema = REGISTRY.contents(f"grasscat/{name}.schema.json")
    validator = Draft202012Validator(schema, registry=REGISTRY)
    return [f"{list(e.absolute_path)}: {e.message}" for e in validator.iter_errors(doc)]


def emit(args, capsys) -> dict:
    assert main(["--json", *args]) == 0
    return json.loads(capsys.readouterr().out)


def test_every_schema_is_valid():
    for path in SCHEMA_DIR.glob("*.schema.json"):
        Draft202012Validator.check_schema(json.loads(path.read_text()))


@pytest.mark.parametrize("schema, args", [
    ("census", ["census", "3", "6"]),
    ("orbit", ["orbit", "135|246@(3,6)"]),
    ("ext", ["ext", "135@(3,6)", "246@(3,6)"]),
    ("roots", ["roots", "3", "6"]),
    ("tubes", ["tubes", "3", "6"]),
    ("census", ["census", "3", "6", "--orbits"]),
    ("module", ["module", "246|135@(3,9)"]),
    ("hom", ["hom", "135@(3,6)", "246@(3,6)"]),
    ("hom", ["--verbose", "hom", "135@(3,6)", "246@(3,6)"]),
    ("syzygy", ["syzygy", "147@(3,9)"]),
    ("rigid", ["rigid", "135|246@(3,6)"]),
    ("rigid", ["rigid", "135@(3,6)"]),
    ("ar-seq", ["ar-seq", "145@(3,8)"]),
    ("ar-seq", ["ar-seq", "134@(3,8)"]),
    ("census", ["census", "3", "7", "--sample", "0.5"]),
])
def test_document_validates(schema, args, tmp_path, capsys):
    doc = emit(["--out", str(tmp_path), *args], capsys)
    assert schema_errors(doc, schema) == []


@pytest.mark.parametrize("k, n", [(3, 9), (4, 8)])
def test_tube_document_with_fixture_checks_validates(k, n, tube_reports, tmp_path):
    # the document ``tubes k n`` prints, built from the session's tube census
    rep = tube_reports[(k, n)]
    payload = {**rep.to_json_dict(), "written": str(tmp_path / "tubes.json")}
    doc = json.loads(json.dumps(payload, sort_keys=True))
    assert doc["fixture_checks"] and doc["mouth_family_periods"]
    assert schema_errors(doc, "tubes") == []


@pytest.mark.parametrize("token", ["145@(3,8)", "123@(3,6)", "1357@(4,8)"])
def test_rim_document_validates(token, capsys):
    doc = emit(["rim", token], capsys)
    assert schema_errors(doc, "rim-doc") == []


def test_rim_document_carries_valid_rims(capsys):
    # its rim and syzygy rim are checked through rim-doc -> rim
    doc = emit(["rim", "145@(3,8)"], capsys)
    assert "syzygy_rim" in doc
    assert schema_errors({**doc, "syzygy_rim": [3]}, "rim-doc")
    assert schema_errors({**doc, "rim": "145"}, "rim-doc")


def test_nested_references_resolve():
    # a census entry whose profile holds a non-rim must fail through profile -> rim
    doc = {"k": 3, "n": 6, "truncation": 12, "version": "x", "rank1_count": 20,
           "counts": {"rank1": 20, "rank2_rigid": 1, "real": 1, "imaginary": 0},
           "rank2_rigid": [{"profiles": [[[1, 3, 5], "246"]], "a_vector": [1] * 6,
                            "classification": "real"}]}
    assert schema_errors(doc, "census")
