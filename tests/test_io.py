import functools
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tensorgap.degeneration import (
    construct_w_degeneration,
    unit_to_w_certificate,
    verify_certificate,
)
from tensorgap.errors import DocumentFormatError, TensorGapError
from tensorgap.fields import QQ
from tensorgap.io import (
    MAX_EPS_COEFFS,
    certificate_from_document,
    certificate_to_document,
    load_certificate,
    load_tensor,
    save_certificate,
    save_tensor,
    tensor_from_document,
    tensor_to_document,
)
from tensorgap.ranks import has_rank_one_flattening
from tensorgap.tensors import Tensor, pad, unit_tensor, w_tensor
from conftest import random_fp_tensor, random_rational_tensor


def test_tensor_document_round_trip_w3():
    w3 = w_tensor(3, (2, 2, 2), QQ)
    doc = tensor_to_document(w3)
    assert doc["field"] == "Q" and doc["dims"] == [2, 2, 2]
    assert tensor_from_document(doc) == w3


def test_tensor_file_round_trip(tmp_path):
    rng = random.Random(123)
    for t in (
        random_rational_tensor((3, 2, 4), rng),
        random_fp_tensor((2, 2, 2), 3, rng),
        Tensor.zeros(QQ, (2, 2)),
        Tensor.from_dict(QQ, (2, 2), {(0, 1): QQ.parse("-7/3")}),
    ):
        path = tmp_path / "t.json"
        save_tensor(t, path)
        assert load_tensor(path) == t


def test_tensor_document_errors():
    w3 = w_tensor(3, (2, 2, 2), QQ)
    doc = tensor_to_document(w3)

    bad = dict(doc)
    bad["entries"] = doc["entries"] + [[[2, 0, 0], "1"]]
    with pytest.raises(DocumentFormatError, match="out of range"):
        tensor_from_document(bad)

    dup = dict(doc)
    dup["entries"] = doc["entries"] + [list(doc["entries"][0])]
    with pytest.raises(DocumentFormatError, match="duplicate"):
        tensor_from_document(dup)

    f4 = dict(doc)
    f4["field"] = "F4"
    with pytest.raises(DocumentFormatError, match="must be prime") as info:
        tensor_from_document(f4)
    assert str(info.value).count("must be prime") == 1

    # only the name a field prints as is read back, so loading and saving
    # round-trip the text exactly
    for name in ("F007", "F+7", "F 7", "F\u0667"):
        noncanonical = dict(doc)
        noncanonical["field"] = name
        with pytest.raises(DocumentFormatError, match="bad field name"):
            tensor_from_document(noncanonical)

    wrong_version = dict(doc)
    wrong_version["format"] = 2
    with pytest.raises(DocumentFormatError, match="format version"):
        tensor_from_document(wrong_version)

    ragged = dict(doc)
    ragged["entries"] = [[[0, 0], "1"]]
    with pytest.raises(DocumentFormatError, match="wrong length"):
        tensor_from_document(ragged)

    bad_scalar = dict(doc)
    bad_scalar["entries"] = [[[0, 0, 0], "x"]]
    with pytest.raises(DocumentFormatError, match="bad scalar"):
        tensor_from_document(bad_scalar)


def test_invalid_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DocumentFormatError, match="invalid JSON"):
        load_tensor(path)


def test_certificate_round_trip_unit_to_w(tmp_path):
    for k in (2, 3, 4):
        cert = unit_to_w_certificate(k)
        doc = certificate_to_document(cert)
        back = certificate_from_document(doc)
        assert back == cert
        path = tmp_path / f"cert{k}.json"
        save_certificate(cert, path)
        assert load_certificate(path) == cert


def test_certificate_round_trip_with_compression(tmp_path):
    t = pad(unit_tensor(3, 2, QQ), (3, 3, 3))
    cert = construct_w_degeneration(t, seed=5)
    assert cert.compression is not None
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    loaded = load_certificate(path)
    assert loaded == cert
    # serialization is stable: print(parse(print(x))) == print(x)
    assert certificate_to_document(loaded) == certificate_to_document(cert)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3), (2, 2, 2, 2)]),
    st.integers(0, 2**32),
)
def test_certificate_save_load_save_is_byte_identical(tmp_path_factory, dims, seed):
    t = random_rational_tensor(dims, random.Random(seed), bound=3)
    assume(not t.is_zero() and has_rank_one_flattening(t) is None)  # partition rank >= 2
    first, second = (tmp_path_factory.mktemp("cert") / "cert.json" for _ in range(2))
    save_certificate(construct_w_degeneration(t, seed=seed), first)
    loaded = load_certificate(first)
    save_certificate(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    assert verify_certificate(loaded).accepted


@functools.cache
def _fuzz_documents():
    """A unit k = 3 certificate and one of a random Q 3x3x3 tensor, as saved JSON."""
    t = random_rational_tensor((3, 3, 3), random.Random(7), bound=3)
    assert has_rank_one_flattening(t) is None
    certs = (construct_w_degeneration(unit_tensor(3, 2, QQ), seed=0), construct_w_degeneration(t, seed=0))
    return tuple(json.dumps(certificate_to_document(c)) for c in certs)


def _node_paths(node, path=()):
    """The key path of every value below the root: leaves, lists and objects."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


_LEAF_VALUES = st.one_of(
    st.sampled_from([0, -1, 10**6, 2**64, True, False, None, "1/0", "", "0", "-1", "1/2", "x"]),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.one_of(st.integers(-2, 2), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=10), st.integers(-2, 2), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_certificate_documents_raise_only_tensorgap_errors(data):
    # Replacing any one value of a saved document (a leaf, or a whole list or
    # object) by a drawn leaf: parse and verify either return (accept or
    # reject) or raise a TensorGapError, never anything else.
    doc = json.loads(data.draw(st.sampled_from(_fuzz_documents())))
    path = data.draw(st.sampled_from(sorted(_node_paths(doc), key=repr)))
    value = data.draw(_LEAF_VALUES)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        verify_certificate(certificate_from_document(doc))
    except TensorGapError:
        pass


def test_certificate_document_errors():
    cert = unit_to_w_certificate(3)
    doc = certificate_to_document(cert)

    bad = json.loads(json.dumps(doc))
    bad["curves"] = bad["curves"][:2]
    with pytest.raises(DocumentFormatError, match="one matrix per factor"):
        certificate_from_document(bad)

    bad = json.loads(json.dumps(doc))
    bad["curves"][0]["entries"][0]["den-coeffs"] = ["0"]
    with pytest.raises(DocumentFormatError, match="zero denominator"):
        certificate_from_document(bad)

    bad = json.loads(json.dumps(doc))
    bad["order"] = 5
    with pytest.raises(DocumentFormatError, match="order"):
        certificate_from_document(bad)

    bad = json.loads(json.dumps(doc))
    bad["kind"] = "tensor"
    with pytest.raises(DocumentFormatError, match="expected kind"):
        certificate_from_document(bad)


def test_oversized_dims_refused_before_allocation():
    # About 100 bytes asking for 2^60 entries, and dims in between that would
    # still allocate gigabytes: both are refused at the dims, not allocated.
    for dims in ([1048576] * 3, [2048] * 3):
        doc = {"format": 1, "kind": "tensor", "field": "Q", "dims": dims, "entries": []}
        with pytest.raises(DocumentFormatError, match="more than") as info:
            tensor_from_document(doc)
        assert info.value.location == "tensor.dims"

    cert_doc = certificate_to_document(unit_to_w_certificate(3))
    cert_doc["source"]["dims"] = [1048576] * 3
    with pytest.raises(DocumentFormatError) as info:
        certificate_from_document(cert_doc)
    assert info.value.location == "certificate.source.dims"


def test_json_booleans_are_not_integers():
    # JSON true loads as a bool, which Python counts as the int 1.  Each
    # integer field refuses it, even where a 1 would fit the rest of the
    # document.
    w3 = tensor_to_document(w_tensor(3, (2, 2, 2), QQ))
    cert = json.loads(_fuzz_documents()[0])

    def changed(doc, edit):
        doc = json.loads(json.dumps(doc))
        edit(doc)
        return doc

    def first_row_only(key):
        def edit(doc):
            node = doc
            for part in key[:-1]:
                node = node[part]
            node["entries"] = node["entries"][: node["cols"] if key[-1] == "rows" else node["rows"]]
            node[key[-1]] = True
        return edit

    tensors = (
        changed(w3, lambda d: d.update(format=True)),
        changed(w3, lambda d: d.update(dims=[True, 2, 2], entries=[[[0, 0, 1], "1"]])),
        changed(w3, lambda d: d.update(entries=[[[0, True, 1], "3"]])),
    )
    for doc in tensors:
        with pytest.raises(DocumentFormatError):
            tensor_from_document(doc)
    certificates = (
        changed(cert, lambda d: d.update(format=True)),
        changed(cert, first_row_only(("compression", 0, "rows"))),
        changed(cert, first_row_only(("compression", 0, "cols"))),
        changed(cert, first_row_only(("curves", 0, "rows"))),
        changed(cert, first_row_only(("curves", 0, "cols"))),
        changed(cert, lambda d: d.update(order=True)),
    )
    for doc in certificates:
        with pytest.raises(DocumentFormatError):
            certificate_from_document(doc)


def test_curve_coefficient_lists_are_capped():
    # A unit k = 12 certificate has lists of up to 121 coefficients; a list
    # longer than MAX_EPS_COEFFS is refused before any coefficient is parsed.
    rng = random.Random(3)
    doc = certificate_to_document(unit_to_w_certificate(3))
    entry = doc["curves"][0]["entries"][0]
    entry["num-coeffs"] = [str(rng.randint(-9, 9)) for _ in range(120)] + ["1"]
    loaded = certificate_from_document(doc)
    assert loaded.curves[0].entries[0].num == tuple(QQ._parse(c) for c in entry["num-coeffs"])
    for key in ("num-coeffs", "den-coeffs"):
        bad = json.loads(json.dumps(doc))
        bad["curves"][0]["entries"][0][key] = ["x"] * (MAX_EPS_COEFFS + 1)
        with pytest.raises(DocumentFormatError, match="more than 128") as info:
            certificate_from_document(bad)
        assert info.value.location == f"certificate.curves[0].entries[0].{key}"
