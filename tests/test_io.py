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
from tensorgap.errors import DocumentFormatError
from tensorgap.fields import QQ
from tensorgap.io import (
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
    with pytest.raises(DocumentFormatError, match="must be prime"):
        tensor_from_document(f4)

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
