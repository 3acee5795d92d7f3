import functools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tensorgap.degeneration import (
    construct_w_degeneration,
    unit_to_w_certificate,
    verify_certificate,
)
from tensorgap.errors import DocumentFormatError, TensorGapError
from tensorgap.fields import GF, QQ
from tensorgap.io import (
    MAX_EPS_COEFFS,
    _curve_matrix_from_document,
    _json_text,
    _write_json,
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
from conftest import (
    dense_coeff_parse,
    dense_monomial_quotient,
    random_fp_tensor,
    random_rational_tensor,
)


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


def test_index_errors_keep_their_messages():
    doc = tensor_to_document(w_tensor(3, (2, 2, 2), QQ))
    for idx, message in (
        ([0, True, 1], "index [0, True, 1] out of range for dims [2, 2, 2]"),
        ([0, 1.0, 1], "index [0, 1.0, 1] out of range for dims [2, 2, 2]"),
        ([0, -1, 1], "index [0, -1, 1] out of range for dims [2, 2, 2]"),
        ([0, 0], "index [0, 0] has wrong length"),
        ([0, 0, 0, 0], "index [0, 0, 0, 0] has wrong length"),
        ("001", "index '001' has wrong length"),
    ):
        bad = dict(doc, entries=[[idx, "1"]])
        with pytest.raises(DocumentFormatError) as info:
            tensor_from_document(bad)
        assert str(info.value) == f"tensor.entries[0]: {message}"


def test_document_errors_are_located_at_the_first_bad_entry():
    doc = tensor_to_document(w_tensor(3, (2, 2, 2), QQ))
    for entries, message in (
        ([[[0, 0, 1], "1"], [[0, 0, 2], "1"], [[1, 0, 0], "x"]], "out of range"),
        ([[[0, 0, 1], "1"], [[1, 0, 0], "x"], [[0, 0, 1], "1"]], "bad scalar"),
        ([[[0, 0, 1], "1"], [[0, 0, 1], "2"], [[0, 2, 0], "1"]], "duplicate"),
    ):
        with pytest.raises(DocumentFormatError, match=message) as info:
            tensor_from_document(dict(doc, entries=entries))
        assert info.value.location == "tensor.entries[1]"
    # compression map and curve literals are located at their entry too
    cert = construct_w_degeneration(pad(unit_tensor(3, 2, QQ), (3, 2, 2)), seed=0)
    cert_doc = certificate_to_document(cert)
    for key, edit in (
        ("compression", lambda entries, n: entries.__setitem__(n, "1/x")),
        ("curves", lambda entries, n: entries[n].update({"num-coeffs": ["y"]})),
    ):
        bad = json.loads(json.dumps(cert_doc))
        entries = bad[key][1]["entries"]
        edit(entries, 3)
        edit(entries, 1)
        with pytest.raises(DocumentFormatError, match="bad scalar") as info:
            certificate_from_document(bad)
        assert info.value.location == f"certificate.{key}[1].entries[1]"


def test_json_number_literals_parse_as_their_strings():
    w3 = tensor_to_document(w_tensor(3, (2, 2, 2), QQ))
    for field, numbers in ((QQ, [3, -2, 0]), (GF(7), [10, -1, 7])):
        for n in numbers:
            numeric = dict(w3, field=field.name, entries=[[[0, 0, 1], n], [[1, 1, 0], "1/2"]])
            text = dict(numeric, entries=[[[0, 0, 1], str(n)], [[1, 1, 0], "1/2"]])
            assert tensor_from_document(numeric) == tensor_from_document(text)
    # a JSON float is not a scalar literal, as its string is not
    for value in (1.5, 2.0):
        with pytest.raises(DocumentFormatError, match="bad scalar literal") as info:
            tensor_from_document(dict(w3, entries=[[[0, 0, 1], value]]))
        assert info.value.location == "tensor.entries[0]"
    cert_doc = certificate_to_document(unit_to_w_certificate(3))
    numeric = json.loads(json.dumps(cert_doc))
    for entry in numeric["curves"][0]["entries"]:
        for key in ("num-coeffs", "den-coeffs"):
            entry[key] = [int(c) for c in entry[key]]
    assert certificate_from_document(numeric) == certificate_from_document(cert_doc)


def test_invalid_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DocumentFormatError, match="invalid JSON"):
        load_tensor(path)


def test_deep_nesting_and_long_integers_are_located_format_errors(tmp_path):
    # 100,000 nested arrays exceed the parser's recursion limit, and a
    # 5000-digit integer exceeds Python's int-digit limit
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    long_int = tmp_path / "long-int.json"
    long_int.write_text(
        '{"format": 1, "kind": "tensor", "field": "Q", "dims": [1%s, 2, 2], "entries": []}'
        % ("0" * 4999)
    )
    for path in (nested, long_int):
        for load in (load_tensor, load_certificate):
            with pytest.raises(DocumentFormatError, match="invalid JSON") as info:
                load(path)
            assert info.value.location == str(path)


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

    # a denominator with two nonzero coefficients is no monomial c*eps^m;
    # zero coefficients around a monomial are fine
    dens = ((["1", "1"], False), (["0", "2", "0", "-1"], False), (["0", "0", "3", "0"], True))
    for den, accepted in dens:
        bad = json.loads(json.dumps(doc))
        bad["curves"][1]["entries"][2]["den-coeffs"] = den
        if accepted:
            certificate_from_document(bad)
            continue
        with pytest.raises(DocumentFormatError, match="not a monomial") as info:
            certificate_from_document(bad)
        assert info.value.location == "certificate.curves[1].entries[2].den-coeffs"

    bad = json.loads(json.dumps(doc))
    bad["order"] = 5
    with pytest.raises(DocumentFormatError, match="order"):
        certificate_from_document(bad)

    bad = json.loads(json.dumps(doc))
    bad["kind"] = "tensor"
    with pytest.raises(DocumentFormatError, match="expected kind"):
        certificate_from_document(bad)


def test_matrix_shapes_below_one_are_refused_where_they_stand():
    # a curve or compression map of -1 x -1 with one entry (or 0 x 0 with
    # none) fits rows * cols = len(entries) but is refused at its location
    cert = construct_w_degeneration(pad(unit_tensor(3, 2, QQ), (3, 2, 2)), seed=0)
    doc = certificate_to_document(cert)
    for key in ("curves", "compression"):
        for rows, cols, count in ((-1, -1, 1), (0, 0, 0), (0, 2, 0), (2, -3, 6)):
            bad = json.loads(json.dumps(doc))
            node = bad[key][1]
            node.update(rows=rows, cols=cols, entries=node["entries"][:1] * count)
            with pytest.raises(DocumentFormatError, match="rows, cols >= 1") as info:
                certificate_from_document(bad)
            assert info.value.location == f"certificate.{key}[1]"


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


# -- curve entries against the dense route ------------------------------------------


def _dense_curve_entries(doc, field, location):
    """The (d, map) of each entry of a 1 x n curve matrix document by the
    dense route: every literal parsed to a raw value, trimmed, then divided
    by the monomial denominator."""
    out = []
    for n, e in enumerate(doc["entries"]):
        where = f"{location}.entries[{n}]"
        try:
            num = dense_coeff_parse(field, e["num-coeffs"])
            den = dense_coeff_parse(field, e["den-coeffs"])
        except ValueError as exc:
            raise DocumentFormatError(str(exc), where) from None
        try:
            out.append(dense_monomial_quotient(field, num, den))
        except ZeroDivisionError:
            raise DocumentFormatError("curve entry has zero denominator", where) from None
        except ValueError as exc:
            raise DocumentFormatError(str(exc), f"{where}.den-coeffs") from None
    return out


def _outcome(parse):
    try:
        return parse()
    except DocumentFormatError as exc:
        return type(exc), str(exc), exc.location


_NONZERO_LITERALS = st.one_of(
    st.integers(-30, 30).filter(bool).map(str),
    st.tuples(st.integers(-30, 30).filter(bool), st.integers(-30, 30).filter(bool)).map(
        lambda ab: f"{ab[0]}/{ab[1]}"
    ),
    st.integers(-30, 30).filter(bool),  # JSON numbers
    st.sampled_from(
        ["7", "14", "7/14", "-2/-4", "3/-6", "4/2", "9/-3", " 5\t", "1 / 2", "+3", "1_0", "\u0663"]
    ),
)
_ZERO_LITERALS = st.sampled_from(["0", "0", "0", "-0", " 0 ", "00", "0/5", 0])
_BAD_LITERALS = st.one_of(
    st.sampled_from(["1/7", "1/0", "0/0", "x", "", "/", "1/", "1/2/3", "1.5"]),
    st.sampled_from([1.5, 2.0, True, False, None, [1], {"a": 1}]),
    st.text(max_size=3),
)


@st.composite
def _literal_lists(draw, monomial=False):
    """Zero and nonzero literals, one nonzero only if monomial; one time in
    eight with one bad literal put in (over F_p a fraction whose reduced
    denominator p divides is bad too)."""
    if monomial:
        texts = draw(st.lists(_ZERO_LITERALS, max_size=3))
        texts.insert(draw(st.integers(0, len(texts))), draw(_NONZERO_LITERALS))
    else:
        texts = draw(st.lists(_ZERO_LITERALS | _NONZERO_LITERALS, max_size=6))
    if draw(st.integers(0, 7)) == 0:
        texts.insert(draw(st.integers(0, len(texts))), draw(_BAD_LITERALS))
    return texts


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([QQ, GF(2), GF(3), GF(7)]),
    st.lists(
        st.tuples(
            _literal_lists(), st.integers(0, 3).flatmap(lambda m: _literal_lists(monomial=m > 0))
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_curve_entries_parse_as_the_dense_route(field, lists):
    # The one-step parse gives each entry the (d, map) of the dense route,
    # or the same error: type, message and location.
    entries = [{"num-coeffs": n, "den-coeffs": d} for n, d in lists]
    doc = {"rows": 1, "cols": len(lists), "entries": entries}
    got = _outcome(
        lambda: [(e._d, e._c) for e in _curve_matrix_from_document(doc, field, "m").entries]
    )
    assert got == _outcome(lambda: _dense_curve_entries(doc, field, "m"))
    if isinstance(got, list):  # maps of ints, as the kernels take them
        assert all(type(x) is int for _, c in got for x in c.values())


# -- the document writer against json.dumps --------------------------------------------

_JSON_STRINGS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(
        ['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "\u00e9\u2028\u2029", "\U0001f600", "\ud800"]
    ),
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _JSON_STRINGS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_STRINGS, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_text_is_json_dumps_indented(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_documents_are_written_as_json_dumps_indented(tmp_path):
    t = random_rational_tensor((3, 3, 3), random.Random(7), bound=3)
    for doc in (
        certificate_to_document(construct_w_degeneration(t, seed=0)),
        certificate_to_document(unit_to_w_certificate(4)),
        tensor_to_document(t),
    ):
        path = tmp_path / "doc.json"
        _write_json(doc, path)
        assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()
    for value in (1.5, (1, 2), {1: "a"}, ["ok", {"k": b"x"}], Fraction(1, 2)):
        with pytest.raises(TypeError):
            _json_text(value)
