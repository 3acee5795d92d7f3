"""Versioned JSON document formats for tensors and degeneration certificates.

Tensor documents carry the field, the dimensions, and a sparse entry list;
omitted entries are zero.  Certificate documents carry the field, source and
target tensors, the optional compression maps with exact scalar entries, and
one curve matrix per factor whose Laurent-polynomial entries are serialized
as two coefficient lists ("num-coeffs", "den-coeffs") read from eps^0
upward, the denominator a monomial c*eps^m.  Parsing and printing are exact
inverses of each other; every malformed input is reported with a document
location, a string built only when the error is raised.

A curve entry goes between its literals and RatFunc's integer form (_d, _c)
in one step each way: `ratfunc.coeff_parse` reads each list and
`ratfunc._monomial_quotient` divides by the monomial denominator, and
`ratfunc.coeff_text` prints both lists from (_d, _c).  Documents are written
by `_json_text`, byte for byte what json.dumps(doc, indent=2) gives, on
json's C string encoder; json's C encoder ignores indent, so json.dumps
would run its pure-Python one.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _json_string

from .degeneration import DegenerationCertificate
from .errors import DocumentFormatError, FieldMismatchError
from .fields import GF, QQ, FieldSpec
from .linalg import Matrix
from .ratfunc import EpsField, _monomial_quotient, coeff_parse, coeff_text
from .tensors import Tensor, _strides

FORMAT_VERSION = 1
# Dense tensors are allocated from a document's dims before any entry is
# read, so dims that ask for more entries than this are refused.
_MAX_TENSOR_ENTRIES = 2**20
# The verifier's work (the curve determinants, the expansion) grows with the
# products of the curve entries' lengths, so coefficient lists longer than
# this are refused before they are parsed.  The builder's longest list for
# the unit tensor of order k has (k - 1)^2 coefficients: 121 at k = 12.
MAX_EPS_COEFFS = 128


def _is_int(x) -> bool:
    """True for a JSON integer; JSON true and false load as bools, not ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_field(name, location) -> FieldSpec:
    if not isinstance(name, str):
        raise DocumentFormatError("field must be a string", location)
    if name == "Q":
        return QQ
    if name.startswith("F"):
        try:
            p = int(name[1:])
        except ValueError:
            raise DocumentFormatError(f"bad field name {name!r}", location) from None
        try:
            field = GF(p)
        except ValueError as exc:
            raise DocumentFormatError(str(exc), location) from None
        if field.name != name:
            raise DocumentFormatError(f"bad field name {name!r}", location)
        return field
    raise DocumentFormatError(f"unknown field {name!r}", location)


def _read_json(path):
    """The JSON value in a file.  Malformed JSON, an integer past Python's
    digit limit (both ValueError) and nesting too deep to parse
    (RecursionError) are format errors located at the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise DocumentFormatError(f"invalid JSON: {exc}", str(path)) from None


def _check_format(doc, kind, location):
    if not isinstance(doc, dict):
        raise DocumentFormatError("document must be a JSON object", location)
    version = doc.get("format")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise DocumentFormatError(f"unsupported format version {version!r}", location)
    if doc.get("kind") != kind:
        raise DocumentFormatError(f"expected kind {kind!r}, got {doc.get('kind')!r}", location)


# -- tensors -------------------------------------------------------------------


def tensor_to_document(t: Tensor) -> dict:
    if not isinstance(t.ring, FieldSpec):
        raise DocumentFormatError("only base-field tensors are serialized")
    if t.ring.m != 1:
        # "F4" would read back as a (non-prime) modulus, and codes as residues.
        raise FieldMismatchError(f"documents hold Q or F_p tensors, not {t.ring.name}")
    entries = []
    for flat, e in enumerate(t.entries):
        if e:
            entries.append([list(t.multi_index(flat)), t.ring.text(e)])
    return {
        "format": FORMAT_VERSION,
        "kind": "tensor",
        "field": t.ring.name,
        "dims": list(t.dims),
        "entries": entries,
    }


def tensor_from_document(doc, location="tensor") -> Tensor:
    _check_format(doc, "tensor", location)
    field = _parse_field(doc.get("field"), f"{location}.field")
    dims = doc.get("dims")
    if (
        not isinstance(dims, list)
        or not dims
        or not all(_is_int(d) and d >= 1 for d in dims)
    ):
        raise DocumentFormatError(f"bad dims {dims!r}", f"{location}.dims")
    size = 1
    for d in dims:
        size *= d
    if size > _MAX_TENSOR_ENTRIES:
        raise DocumentFormatError(
            f"dims {dims!r} need {size} entries, more than {_MAX_TENSOR_ENTRIES}",
            f"{location}.dims",
        )
    dims = tuple(dims)
    raw = doc.get("entries")
    if not isinstance(raw, list):
        raise DocumentFormatError("entries must be a list", f"{location}.entries")
    axes = tuple(zip(dims, _strides(dims)))
    entries = [field._raw(0)] * size
    seen = set()  # flat indices
    for n, pair in enumerate(raw):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise DocumentFormatError("entry must be [index, value]", _entry(location, n))
        idx, text = pair
        if not (isinstance(idx, list) and len(idx) == len(dims)):
            raise DocumentFormatError(f"index {idx!r} has wrong length", _entry(location, n))
        flat = 0
        for i, (d, s) in zip(idx, axes):
            if not (isinstance(i, int) and type(i) is not bool and 0 <= i < d):
                raise DocumentFormatError(
                    f"index {idx!r} out of range for dims {list(dims)}", _entry(location, n)
                )
            flat += i * s
        if flat in seen:
            raise DocumentFormatError(f"duplicate index {idx!r}", _entry(location, n))
        seen.add(flat)
        try:
            entries[flat] = field._parse(str(text))
        except ValueError as exc:
            raise DocumentFormatError(str(exc), _entry(location, n)) from None
    return Tensor._from_raw(field, dims, entries)


def _entry(location, n, key=None) -> str:
    """The location of entry n of the entries list at location, or of its
    member key; built only for an error."""
    return f"{location}.entries[{n}]" if key is None else f"{location}.entries[{n}].{key}"


def _json_text(value, newline="\n") -> str:
    """json.dumps(value, indent=2) for the values documents hold: str, int,
    bool, None, and lists and str-keyed dicts of them, in insertion order;
    anything else raises TypeError.  newline is the line break and
    indentation before value's closing bracket."""
    kind = type(value)
    if kind is str:
        return _json_string(value)
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for k, v in value.items():
            if type(k) is not str:
                raise TypeError(f"document keys must be str, not {type(k).__name__}")
            items.append(_json_string(k) + ": " + _json_text(v, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _write_json(doc, path) -> None:
    """Write a document as json.dumps(doc, indent=2) with a final newline,
    in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(doc) + "\n")


def save_tensor(t: Tensor, path) -> None:
    _write_json(tensor_to_document(t), path)


def load_tensor(path) -> Tensor:
    return tensor_from_document(_read_json(path), location=str(path))


# -- matrices ------------------------------------------------------------------


def _scalar_matrix_to_document(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": [m.ring.text(e) for e in m.entries]}


def _matrix_shape(doc, what, location):
    """The rows, cols and entries list of a matrix document, checked."""
    if not isinstance(doc, dict):
        raise DocumentFormatError(f"{what} must be an object", location)
    rows, cols = doc.get("rows"), doc.get("cols")
    entries = doc.get("entries")
    if not (_is_int(rows) and _is_int(cols) and isinstance(entries, list)):
        raise DocumentFormatError(f"{what} needs rows, cols, entries", location)
    if rows < 1 or cols < 1:
        raise DocumentFormatError(f"{what} needs rows, cols >= 1, got {rows}x{cols}", location)
    if len(entries) != rows * cols:
        raise DocumentFormatError(
            f"{rows}x{cols} {what} with {len(entries)} entries", location
        )
    return rows, cols, entries


def _scalar_matrix_from_document(doc, field, location) -> Matrix:
    rows, cols, entries = _matrix_shape(doc, "matrix", location)
    parsed = []
    for n, e in enumerate(entries):
        try:
            parsed.append(field._parse(str(e)))
        except ValueError as exc:
            raise DocumentFormatError(str(exc), _entry(location, n)) from None
    return Matrix._from_raw(field, rows, cols, parsed)


def _curve_matrix_to_document(m: Matrix) -> dict:
    entries = []
    for e in m.entries:
        num, den = coeff_text(e)
        entries.append({"num-coeffs": num, "den-coeffs": den})
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def _curve_matrix_from_document(doc, field, location) -> Matrix:
    rows, cols, entries = _matrix_shape(doc, "curve matrix", location)
    ring = EpsField(field)
    parsed = []
    for n, e in enumerate(entries):
        if not isinstance(e, dict) or "num-coeffs" not in e or "den-coeffs" not in e:
            raise DocumentFormatError(
                "curve entry needs num-coeffs and den-coeffs", _entry(location, n)
            )
        num, den = e["num-coeffs"], e["den-coeffs"]
        for key, texts in (("num-coeffs", num), ("den-coeffs", den)):
            if not isinstance(texts, list):
                raise DocumentFormatError(f"{key} must be a list", _entry(location, n, key))
            if len(texts) > MAX_EPS_COEFFS:
                raise DocumentFormatError(
                    f"{key} has {len(texts)} coefficients, more than {MAX_EPS_COEFFS}",
                    _entry(location, n, key),
                )
        try:
            num, den = coeff_parse(field, num), coeff_parse(field, den)
        except ValueError as exc:
            raise DocumentFormatError(str(exc), _entry(location, n)) from None
        try:
            parsed.append(_monomial_quotient(field, num, den))
        except ZeroDivisionError:
            raise DocumentFormatError(
                "curve entry has zero denominator", _entry(location, n)
            ) from None
        except ValueError as exc:
            raise DocumentFormatError(str(exc), _entry(location, n, "den-coeffs")) from None
    return Matrix._from_raw(ring, rows, cols, parsed)


# -- certificates ----------------------------------------------------------------


def certificate_to_document(cert: DegenerationCertificate) -> dict:
    field = cert.source.ring
    doc = {
        "format": FORMAT_VERSION,
        "kind": "certificate",
        "field": field.name,
        "order": cert.order,
        "source": tensor_to_document(cert.source),
        "target": tensor_to_document(cert.target),
        "compression": None
        if cert.compression is None
        else [_scalar_matrix_to_document(m) for m in cert.compression],
        "curves": [_curve_matrix_to_document(m) for m in cert.curves],
    }
    return doc


def certificate_from_document(doc, location="certificate") -> DegenerationCertificate:
    _check_format(doc, "certificate", location)
    field = _parse_field(doc.get("field"), f"{location}.field")
    source = tensor_from_document(doc.get("source"), f"{location}.source")
    target = tensor_from_document(doc.get("target"), f"{location}.target")
    if source.ring is not field or target.ring is not field:
        raise DocumentFormatError("source/target field disagrees with certificate field", location)
    order = doc.get("order")
    if not _is_int(order) or order != target.order:
        raise DocumentFormatError(f"order {order!r} does not match target", location)
    compression = doc.get("compression")
    maps = None
    if compression is not None:
        if not isinstance(compression, list) or len(compression) != source.order:
            raise DocumentFormatError("compression needs one map per factor", location)
        maps = tuple(
            _scalar_matrix_from_document(m, field, f"{location}.compression[{j}]")
            for j, m in enumerate(compression)
        )
    curves_doc = doc.get("curves")
    if not isinstance(curves_doc, list) or len(curves_doc) != target.order:
        raise DocumentFormatError("curves needs one matrix per factor", location)
    curves = tuple(
        _curve_matrix_from_document(m, field, f"{location}.curves[{j}]")
        for j, m in enumerate(curves_doc)
    )
    return DegenerationCertificate(
        source=source, target=target, curves=curves, compression=maps
    )


def save_certificate(cert: DegenerationCertificate, path) -> None:
    _write_json(certificate_to_document(cert), path)


def load_certificate(path) -> DegenerationCertificate:
    return certificate_from_document(_read_json(path), location=str(path))
