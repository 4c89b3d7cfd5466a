"""Fuzz tests for the readers of untrusted artifacts.

Every reader of a file or JSON document the pipeline exchanges must either
return a value or raise ValueError on any input: arbitrary bytes for the
binary formats, arbitrary JSON values for the documents, and valid
artifacts with one part replaced, deleted or cut short.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdmark.channel_attacks import TamperRecord, attack_insert
from spdmark.keyspace import (
    BaseSecret,
    KeyConfig,
    derive_frame_messages,
    extraction_document,
    key_document,
    parse_extraction_document,
    parse_key_document,
    parse_schedule_document,
    random_key,
    schedule_document,
)
from spdmark.objective import LinearExtractor, read_extractor, write_extractor
from spdmark.spd_core import read_video, write_video
from spdmark.verifier import Verdict, verify

CFG = KeyConfig.from_layout(2, 4)
KEY = random_key(CFG, 0)
SCHEDULE = derive_frame_messages(BaseSecret(b"reader-fuzz-secret"), KEY, 3)
ATTACKED, RECORD = attack_insert(SCHEDULE, 0.5, "noise", seed=1)
DOCUMENTS = {
    parse_key_document: key_document(CFG, KEY),
    parse_schedule_document: schedule_document(CFG, KEY, SCHEDULE),
    parse_extraction_document: extraction_document(ATTACKED),
    Verdict.from_doc: verify(SCHEDULE, ATTACKED).to_doc(RECORD.to_doc()),
    TamperRecord.from_doc: RECORD.to_doc(),
}


def _binary(writer, value) -> bytes:
    buffer = io.BytesIO()
    writer(buffer, value)
    return buffer.getvalue()


VIDEO = _binary(write_video, np.full((2, 3, 2, 2), 0.5))
EXTRACTOR = _binary(write_extractor, LinearExtractor(np.ones((2, 3)), np.zeros(2)))

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["", "90", "9f", "ff00", "zz"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


def returns_or_value_error(reader, value) -> None:
    try:
        reader(value)
    except ValueError:
        pass


@st.composite
def mutated(draw, value):
    """`value` with one nested entry replaced by an arbitrary JSON value, or
    deleted when it is a dictionary entry."""
    if isinstance(value, (dict, list)) and value and draw(st.booleans()):
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        key = draw(st.sampled_from(list(keys)))
        copy = dict(value) if isinstance(value, dict) else list(value)
        if isinstance(copy, dict) and draw(st.booleans()):
            del copy[key]
        else:
            copy[key] = draw(mutated(value[key]))
        return copy
    return draw(json_values)


@st.composite
def mutated_bytes(draw, valid: bytes):
    """`valid` cut short, extended, or with some bytes overwritten."""
    data = bytearray(valid)
    choice = draw(st.sampled_from(["cut", "extend", "overwrite"]))
    if choice == "cut":
        return bytes(data[: draw(st.integers(0, len(data) - 1))])
    if choice == "extend":
        return bytes(data) + draw(st.binary(min_size=1, max_size=16))
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


@given(
    st.sampled_from(list(DOCUMENTS)),
    st.data(),
)
@settings(max_examples=500, deadline=None)
def test_documents_parse_or_raise_value_error(parser, data):
    doc = data.draw(json_values | mutated(DOCUMENTS[parser]))
    returns_or_value_error(parser, doc)


def test_valid_documents_parse():
    for parser, doc in DOCUMENTS.items():
        parser(doc)


@given(st.sampled_from([(read_video, VIDEO), (read_extractor, EXTRACTOR)]), st.data())
@settings(max_examples=400, deadline=None)
def test_binary_readers_return_or_raise_value_error(reader_and_valid, data):
    reader, valid = reader_and_valid
    raw = data.draw(st.binary(max_size=64) | mutated_bytes(valid))
    returns_or_value_error(reader, io.BytesIO(raw))


@given(json_values, st.binary(max_size=64))
@settings(max_examples=200, deadline=None)
def test_extractor_reader_on_arbitrary_headers(header, payload):
    raw = json.dumps(header).encode("ascii") + b"\n" + payload
    returns_or_value_error(read_extractor, io.BytesIO(raw))


VERDICT = DOCUMENTS[Verdict.from_doc]


@st.composite
def verdict_variants(draw):
    """The valid verdict document with one length, one frame field or the
    frame list changed to something `verify` never writes, or kept."""
    doc = json.loads(json.dumps(VERDICT))
    frames = doc["frames"]
    choice = draw(st.sampled_from(["length", "field", "drop", "repeat", "none"]))
    if choice == "length":
        name = draw(st.sampled_from(["num_expected", "num_extracted", "message_bits"]))
        doc[name] = draw(st.integers(-3, 40))
    elif choice == "field":
        frame = draw(st.sampled_from(frames))
        frame[draw(st.sampled_from(["pi", "rho", "matched_bits"]))] = draw(st.integers(-3, 40))
    elif choice == "drop":
        del frames[draw(st.integers(0, len(frames) - 1))]
    elif choice == "repeat":
        frames.append(dict(draw(st.sampled_from(frames))))
    return doc


@given(verdict_variants() | mutated(VERDICT))
@settings(max_examples=500, deadline=None)
def test_parsed_verdicts_are_alignments(doc):
    """A verdict read back is one `verify` could have written: a one-to-one
    alignment of min(T, T_r) frames with counts in [0, M]."""
    try:
        verdict = Verdict.from_doc(doc)
    except ValueError:
        return
    t, t_r, m = verdict.num_expected, verdict.num_extracted, verdict.message_bits
    assert min(t, t_r, m) >= 1
    assert len(verdict.frames) == min(t, t_r)
    assert len({f.pi for f in verdict.frames}) == len(verdict.frames)
    assert len({f.rho for f in verdict.frames}) == len(verdict.frames)
    for f in verdict.frames:
        assert 1 <= f.pi <= t and 1 <= f.rho <= t_r and 0 <= f.matched_bits <= m


@pytest.mark.parametrize(
    "change",
    [
        pytest.param({"frames": [{"pi": 99, "rho": -4, "matched_bits": 500, "valid": True}]
                      + VERDICT["frames"][1:]}, id="frame-out-of-range"),
        pytest.param({"message_bits": 0}, id="no-message-bits"),
        pytest.param({"num_expected": -3}, id="negative-length"),
        pytest.param({"frames": [], "num_expected": 4_000_000, "num_extracted": 4_000_000},
                     id="no-frames-for-huge-lengths"),
    ],
)
def test_impossible_verdicts_rejected(change):
    with pytest.raises(ValueError):
        Verdict.from_doc({**VERDICT, **change})
