"""Golden corpus for the harness codec: cache bytes and keys must not move.

``tests/fixtures/codec_golden.json`` pins the canonical JSON (and, for
specs, the ``spec_fingerprint`` cache key) of every shape the sweep
harness persists.  Any codec change that would orphan existing cache
files, shift a journal record or re-key a sweep fails here.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments.serialize import MESSAGE_TYPES, canonical_json, decode, encode

FIXTURES = Path(__file__).parent / "fixtures"


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "generate_codec_golden", FIXTURES / "generate_codec_golden.py"
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_generator()
GOLDEN = json.loads((FIXTURES / "codec_golden.json").read_text())
BUILT = GEN.build()
RESULTS = GEN.results()
STANDALONE = GEN.standalone()


def test_corpus_covers_every_entry():
    assert sorted(BUILT) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_entry_bytes_and_fingerprint(name):
    assert BUILT[name] == GOLDEN[name]


@pytest.mark.parametrize("name,kind,spec", GEN.SPECS, ids=[e[0] for e in GEN.SPECS])
def test_spec_round_trips_to_identical_bytes(name, kind, spec):
    stored = GOLDEN[name]["json"]
    decoded = decode(type(spec), json.loads(stored))
    assert decoded == spec
    assert canonical_json(kind.spec_to_dict(decoded)) == stored


@pytest.mark.parametrize("name,kind,result", RESULTS, ids=[e[0] for e in RESULTS])
def test_result_round_trips_to_identical_bytes(name, kind, result):
    stored = GOLDEN[name]["json"]
    decoded = kind.result_from_dict(json.loads(stored))
    assert type(decoded) is type(result)
    assert canonical_json(kind.result_to_dict(decoded)) == stored


@pytest.mark.parametrize("name,cls,value", STANDALONE, ids=[e[0] for e in STANDALONE])
def test_standalone_round_trips_to_identical_bytes(name, cls, value):
    stored = GOLDEN[name]["json"]
    decoded = decode(cls, json.loads(stored))
    assert type(decoded) is type(value)
    assert canonical_json(encode(decoded)) == stored


def test_every_message_type_is_in_the_corpus():
    names = {name.split("/")[1].split("-")[0] for name in GOLDEN if name.startswith("message/")}
    assert names == set(MESSAGE_TYPES)
