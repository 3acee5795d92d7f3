import hashlib
import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tensorgap import degeneration
from tensorgap.degeneration import (
    DegenerationCertificate,
    WedgePoint,
    _certify_cube,
    _choose_slice_combo,
    _coordinates,
    _dvr_reduce_pair,
    _expand,
    _find_shear,
    _rows,
    construct_w_degeneration,
    eps_coefficient_tensor,
    grassmann_degenerates,
    pluecker_wedge,
    scaling_map_tuple,
    stab_scaling_curve,
    stab_shear,
    tensor_min_valuation,
    unit_to_w_certificate,
    verify_certificate,
)
from tensorgap.errors import (
    CertificateConstructionError,
    DegenerateSpanError,
    DimensionMismatchError,
    DocumentFormatError,
    FieldMismatchError,
)
from tensorgap.fields import GF, QQ
from tensorgap.io import certificate_from_document, certificate_to_document, save_certificate
from tensorgap.linalg import Matrix, lift_matrix, mat_rank
from tensorgap.ranks import has_rank_one_flattening, rank_signature
from tensorgap.ratfunc import EpsField
from tensorgap.tensors import Tensor, flatten, lift_tensor, pad, restrict, unit_tensor, w_tensor
from conftest import random_rational_tensor

EPS = EpsField(QQ)


def _identity_curves(dims):
    return tuple(Matrix.identity(EPS, d) for d in dims)


def test_verify_accepts_identity_curves():
    t = unit_tensor(3, 2, QQ)
    cert = DegenerationCertificate(source=t, target=t, curves=_identity_curves(t.dims))
    assert verify_certificate(cert).accepted


def test_scaling_curves_weight_exponents():
    for k in (3, 4):
        curves = scaling_map_tuple(k, QQ)
        for idx in itertools.product((0, 1), repeat=k):
            basis = Tensor.from_dict(QQ, (2,) * k, {idx: 1})
            expanded = restrict(lift_tensor(basis, EPS), curves)
            assert [e.valuation() for e in expanded.entries if e] == [k * sum(idx)]


def test_apply_certificate_unit_to_w_expansion():
    # the expansion itself, read through the public helpers: no pole, and
    # the eps^0 coefficient tensor is W_3
    cert = unit_to_w_certificate(3)
    expanded = restrict(lift_tensor(cert.compressed_source(), EPS), cert.curves)
    assert tensor_min_valuation(expanded) == 0
    assert eps_coefficient_tensor(expanded, 0) == w_tensor(3, (2, 2, 2), QQ)
    assert eps_coefficient_tensor(expanded, -1) == Tensor.zeros(QQ, (2, 2, 2))


def test_apply_certificate_rejects_singular_curve():
    # determinant eps^2 - eps^2: singular over K(eps) though no entry is constant
    t = unit_tensor(2, 2, QQ)
    bad = Matrix(EPS, 2, 2, [EPS.eps(1), EPS.one(), EPS.eps(2), EPS.eps(1)])
    cert = DegenerationCertificate(source=t, target=t, curves=(Matrix.identity(EPS, 2), bad))
    result = verify_certificate(cert)
    assert not result.accepted and result.condition == "singular-curve"
    assert "curve 1" in result.detail


def test_stab_scaling_curve_shape():
    h, prefactor = stab_scaling_curve(3, QQ)
    assert h[0, 0] == EPS.eps(-1)
    assert h[1, 1] == EPS.eps(2)
    assert not h[0, 1] and not h[1, 0]
    assert prefactor == EPS.eps(3)


def test_assembled_scaling_tuple_fixes_w_up_to_prefactor():
    from tensorgap.tensors import lift_tensor

    for k in (2, 3, 4):
        wk = w_tensor(k, (2,) * k, QQ)
        curves = scaling_map_tuple(k, QQ)
        transported = restrict(lift_tensor(wk, EPS), curves)
        assert transported == lift_tensor(wk, EPS).scale(EPS.eps(k))


def test_unit_to_w_certificates_accept():
    for k in (2, 3, 4, 5):
        cert = unit_to_w_certificate(k)
        result = verify_certificate(cert)
        assert result.accepted, (k, result.condition, result.detail)


def test_unit_to_w_certificate_over_f2():
    cert = unit_to_w_certificate(3, GF(2))
    assert verify_certificate(cert).accepted


def test_verify_refuses_target_over_another_field():
    # entries are raw values, so a target over another field must be refused
    # before any comparison: F_3 residues would compare equal to rationals
    t = unit_tensor(3, 2, QQ)
    cert = unit_to_w_certificate(3)
    odd = DegenerationCertificate(source=t, target=w_tensor(3, (2, 2, 2), GF(3)), curves=cert.curves)
    with pytest.raises(FieldMismatchError):
        verify_certificate(odd)


def test_verify_rejects_wrong_constant_term():
    t = unit_tensor(3, 2, QQ)
    w3 = w_tensor(3, (2, 2, 2), QQ)
    cert = DegenerationCertificate(source=t, target=w3, curves=_identity_curves(t.dims))
    result = verify_certificate(cert)
    assert not result.accepted
    assert result.condition == "constant-term-mismatch"


def _unit_document(coeffs: int, dense_den: bool):
    """The unit k = 3 certificate document, every curve entry replaced by
    `coeffs` random numerator coefficients over a dense denominator of as
    many coefficients, or over eps^7."""
    rnd = random.Random(0)
    doc = certificate_to_document(unit_to_w_certificate(3))
    for curve in doc["curves"]:
        for entry in curve["entries"]:
            entry["num-coeffs"] = [str(rnd.randint(1, 9)) for _ in range(coeffs)]
            if dense_den:
                entry["den-coeffs"] = [str(rnd.randint(1, 9)) for _ in range(coeffs)]
            else:
                entry["den-coeffs"] = ["0"] * 7 + ["1"]
    return doc


def test_verify_rejects_random_dense_curve_entries():
    # Dense degree-7 numerators and denominators: no Laurent polynomial, so
    # the document is refused at load, at the first entry's den-coeffs.
    with pytest.raises(DocumentFormatError, match="not a monomial") as info:
        certificate_from_document(_unit_document(8, dense_den=True))
    assert info.value.location == "certificate.curves[0].entries[0].den-coeffs"


def test_verify_runs_no_euclid_on_laurent_curve_entries():
    # 32 random numerator coefficients over eps^7 in every curve entry: the
    # expansion and the curve determinants stay on integer Laurent
    # coefficients, and the document is rejected by value.
    result = verify_certificate(certificate_from_document(_unit_document(32, dense_den=False)))
    assert not result.accepted


def test_verify_rejects_long_dense_laurent_entries_by_value():
    # A 3x3x3 document (the unit tensor of rank 3 to itself) whose curve
    # entries have 128 dense numerator coefficients over the denominator 1,
    # the longest list a document may hold: rejected by value.
    rnd = random.Random(0)
    t = unit_tensor(3, 3, QQ)
    doc = certificate_to_document(DegenerationCertificate(t, t, _identity_curves(t.dims)))
    for curve in doc["curves"]:
        for entry in curve["entries"]:
            entry["num-coeffs"] = [str(rnd.randrange(1, 10)) for _ in range(128)]
            entry["den-coeffs"] = ["1"]
    result = verify_certificate(certificate_from_document(doc))
    assert result.condition == "constant-term-mismatch"


def test_verify_rejects_pole():
    t = unit_tensor(3, 2, QQ)
    pole = Matrix(EPS, 2, 2, [EPS.eps(-1), EPS.zero(), EPS.zero(), EPS.one()])
    cert = DegenerationCertificate(
        source=t,
        target=t,
        curves=(pole, Matrix.identity(EPS, 2), Matrix.identity(EPS, 2)),
    )
    result = verify_certificate(cert)
    assert not result.accepted
    assert result.condition == "negative-valuation"
    assert "(0, 0, 0)" in result.detail


def test_verify_rejects_singular_curve_as_value():
    t = unit_tensor(2, 2, QQ)
    bad = Matrix(EPS, 2, 2, [EPS.one(), EPS.zero(), EPS.zero(), EPS.zero()])
    cert = DegenerationCertificate(source=t, target=t, curves=(bad, Matrix.identity(EPS, 2)))
    result = verify_certificate(cert)
    assert not result.accepted and result.condition == "singular-curve"


def test_stab_shear_fixes_w():
    rng = random.Random(60)
    for k in (3, 4, 5):
        wk = w_tensor(k, (2,) * k, QQ)
        zero_shear = stab_shear([QQ.zero()] * k)
        assert restrict(wk, zero_shear) == wk
        explicit = stab_shear([QQ.from_int(1), QQ.from_int(1), QQ.from_int(-2)] + [QQ.zero()] * (k - 3))
        assert restrict(wk, explicit) == wk
        for _ in range(10):
            s = [rng.randint(-5, 5) for _ in range(k - 1)]
            s.append(-sum(s))
            assert restrict(wk, stab_shear([QQ.from_int(x) for x in s])) == wk


def test_stab_shear_rejects_nonzero_sum():
    with pytest.raises(ValueError):
        stab_shear([QQ.from_int(1), QQ.zero(), QQ.zero()])


def test_pluecker_wedge_basics():
    w2 = w_tensor(2, (2, 2), QQ)
    assert pluecker_wedge(w2, w2).is_zero()
    a = Tensor.from_dict(QQ, (2, 2), {(0, 0): 1})
    b = Tensor.from_dict(QQ, (2, 2), {(1, 1): 1})
    wedge = pluecker_wedge(a, b)
    nz = [c for c in wedge.coords if c]
    assert len(nz) == 1 and abs(nz[0].value) == 1
    # two slices of W3 along the last factor are independent
    w3 = w_tensor(3, (2, 2, 2), QQ)
    s0, s1 = (Tensor(QQ, (2, 2), flatten(w3, [2]).row(i)) for i in (0, 1))
    assert not pluecker_wedge(s0, s1).is_zero()


def test_grassmann_identity_and_collapse():
    w2 = w_tensor(2, (2, 2), QQ)
    corner = Tensor.from_dict(QQ, (2, 2), {(0, 0): 1})
    ident = _identity_curves((2, 2))
    assert grassmann_degenerates(ident, (w2, corner), (w2, corner))
    # a singular constant curve collapses the span: wedge vanishes identically
    collapse = (
        Matrix(EPS, 2, 2, [EPS.one(), EPS.zero(), EPS.zero(), EPS.zero()]),
        Matrix(EPS, 2, 2, [EPS.one(), EPS.zero(), EPS.zero(), EPS.zero()]),
    )
    e01 = Tensor.from_dict(QQ, (2, 2), {(0, 1): 1})
    assert not grassmann_degenerates(collapse, (corner, e01), (corner, e01))
    with pytest.raises(DegenerateSpanError):
        grassmann_degenerates(ident, (corner, corner), (w2, corner))
    # a target plane that shares one tensor with the limit plane is refused,
    # whichever of its two tensors that is
    e11 = Tensor.from_dict(QQ, (2, 2), {(1, 1): 1})
    assert not grassmann_degenerates(ident, (w2, corner), (w2, e11))
    assert not grassmann_degenerates(ident, (w2, corner), (e11, w2))


def test_grassmann_refuses_foreign_fields_and_mixed_dims():
    w2 = w_tensor(2, (2, 2), QQ)
    corner = Tensor.from_dict(QQ, (2, 2), {(0, 0): 1})
    ident = _identity_curves((2, 2))
    f5 = GF(5)
    w2_f5 = w_tensor(2, (2, 2), f5)
    corner_f5 = Tensor.from_dict(f5, (2, 2), {(0, 0): 1})
    for e_t, e_s in (
        ((w2, corner), (w2_f5, corner_f5)),
        ((w2_f5, corner_f5), (w2, corner)),
        ((w2, corner), (w2, corner_f5)),
        ((lift_tensor(w2, EPS), corner), (w2, corner)),
    ):
        with pytest.raises(FieldMismatchError):
            grassmann_degenerates(ident, e_t, e_s)
    # a (2, 2, 2) pair against a (2, 2) plane, in either role
    w3 = w_tensor(3, (2, 2, 2), QQ)
    corner3 = Tensor.from_dict(QQ, (2, 2, 2), {(0, 0, 0): 1})
    for e_t, e_s in (((w2, corner), (w3, corner3)), ((w3, corner3), (w2, corner))):
        with pytest.raises(DimensionMismatchError):
            grassmann_degenerates(ident, e_t, e_s)


@st.composite
def _span_cases(draw):
    """An independent basis of one or two tensors over Q, F_2 or F_5, and a
    target drawn inside or outside its span."""
    field = draw(st.sampled_from((QQ, GF(2), GF(5))))
    dims = draw(st.sampled_from(((2, 2), (2, 2, 2), (2, 3))))
    size = math.prod(dims)
    values = st.integers(-3, 3) if field is QQ else st.integers(0, field.p - 1)

    def tensor():
        return Tensor(field, dims, draw(st.lists(values, min_size=size, max_size=size)))

    basis = tuple(tensor() for _ in range(draw(st.integers(1, 2))))
    assume(mat_rank(_rows(*basis)) == len(basis))
    if draw(st.booleans()):
        target = Tensor.zeros(field, dims)
        for b in basis:
            target = target + b.scale(draw(values))
        inside = True
    else:
        target = tensor()
        inside = mat_rank(_rows(*basis, target)) == len(basis)
    return basis, target, inside


@settings(max_examples=300, deadline=None)
@given(_span_cases())
def test_coordinates_agree_with_rank(case):
    basis, target, inside = case
    coords = _coordinates(basis, target)
    assert (coords is not None) == inside
    if coords is not None:
        rebuilt = Tensor.zeros(target.ring, target.dims)
        for x, b in zip(coords, basis):
            rebuilt = rebuilt + b.scale(x)
        assert rebuilt == target


def _pluecker_limit(curves, e_t):
    """The Pluecker form of the Grassmannian limit: the transported wedge at
    its minimal eps power, or None when the wedge vanishes identically."""
    a, b = (restrict(lift_tensor(t, EPS), curves) for t in e_t)
    wedge = pluecker_wedge(a, b)
    if wedge.is_zero():
        return None
    v = min(c.valuation() for c in wedge.coords if c)
    return WedgePoint(QQ, wedge.ambient_dim, tuple(c.coefficient(v) for c in wedge.coords))


def _pluecker_accepts(limit, e_s) -> bool:
    return limit is not None and limit.proportional_to(pluecker_wedge(*e_s))


def _plane_of_wedge(wedge: WedgePoint, dims):
    """Two tensors spanning the plane of a nonzero decomposable wedge a ^ b.

    Row i of the skew matrix (p_ic) is a_i b - b_i a; rows i and j span the
    plane when p_ij != 0.
    """
    n = wedge.ambient_dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    p = dict(zip(pairs, wedge.coords))
    i, j = next(pair for pair in pairs if p[pair])

    def row(r):
        return Tensor(QQ, dims, [
            p[(r, c)] if r < c else -p[(c, r)] if c < r else QQ.zero() for c in range(n)
        ])

    return row(i), row(j)


def _random_eps_entry(rng):
    e = EPS.zero()
    for d in range(2):
        e = e + EPS.from_int(rng.randint(-2, 2)) * EPS.eps(d)
    return e * EPS.eps(-1) if rng.random() < 0.25 else e


def test_grassmann_rank_test_agrees_with_pluecker():
    rng = random.Random(4321)
    accepted = rejected = 0
    for order, trials in ((2, 40), (3, 8)):
        dims = (2,) * order
        for _ in range(trials):
            curves = tuple(
                Matrix(EPS, 2, 2, [_random_eps_entry(rng) for _ in range(4)])
                for _ in range(order)
            )
            e_t = tuple(random_rational_tensor(dims, rng, bound=2) for _ in range(2))
            if pluecker_wedge(*e_t).is_zero():
                continue
            limit = _pluecker_limit(curves, e_t)
            targets = [e_t]
            if limit is not None:
                u, v = _plane_of_wedge(limit, dims)
                for _ in range(2):
                    x, y, z, w = (QQ.from_int(rng.randint(-3, 3)) for _ in range(4))
                    if not x * w - y * z:
                        continue
                    s0 = u.scale(x) + v.scale(y)
                    s1 = u.scale(z) + v.scale(w)
                    # an invertible combination of the limit plane is accepted
                    assert _pluecker_accepts(limit, (s0, s1))
                    assert grassmann_degenerates(curves, e_t, (s0, s1))
                    accepted += 1
                    idx = tuple(rng.randrange(2) for _ in dims)
                    bump = Tensor.from_dict(QQ, dims, {idx: rng.choice((-1, 1))})
                    targets.append((s0 + bump, s1))
            for e_s in targets:
                if pluecker_wedge(*e_s).is_zero():
                    with pytest.raises(DegenerateSpanError):
                        grassmann_degenerates(curves, e_t, e_s)
                    continue
                expected = _pluecker_accepts(limit, e_s)
                assert grassmann_degenerates(curves, e_t, e_s) == expected
                accepted += expected
                rejected += not expected
    assert accepted >= 100 and rejected >= 100
    # the first curve folds e_0 onto (1 + eps) e_0 and e_1 onto e_0: e00 and
    # e10 are carried to (1 + eps) e00 and e00, dependent over K(eps) with a
    # ratio 1 / (1 + eps) that is no Laurent polynomial, so no finite number
    # of reduction steps separates them
    one_plus_eps = EPS.one() + EPS.eps()
    fold = Matrix(EPS, 2, 2, [one_plus_eps, EPS.one(), EPS.zero(), EPS.zero()])
    e00 = Tensor.from_dict(QQ, (2, 2), {(0, 0): 1})
    e10 = Tensor.from_dict(QQ, (2, 2), {(1, 0): 1})
    curves = (fold, Matrix.identity(EPS, 2))
    assert restrict(lift_tensor(e00, EPS), curves) == restrict(
        lift_tensor(e10, EPS), curves
    ).scale(one_plus_eps)
    assert _pluecker_limit(curves, (e00, e10)) is None
    assert not grassmann_degenerates(curves, (e00, e10), (e00, e10))


def test_dvr_reduction_transform_is_exact():
    # curves and pairs drawn as in the agreement test (its seed and
    # distributions): (ra, rb) = T * (a, b) exactly, T lower-triangular.  Each
    # transported pair is also reduced as (a, c*a + eps^j * b), whose leading
    # coefficients are proportional, so the b -= lam * a step is exercised.
    rng = random.Random(4321)
    cases = subtracted = 0
    for order, trials in ((2, 40), (3, 8)):
        dims = (2,) * order
        for _ in range(trials):
            curves = tuple(
                Matrix(EPS, 2, 2, [_random_eps_entry(rng) for _ in range(4)])
                for _ in range(order)
            )
            a, b = (
                restrict(lift_tensor(random_rational_tensor(dims, rng, bound=2), EPS), curves)
                for _ in range(2)
            )
            if pluecker_wedge(a, b).is_zero():
                continue
            shift = max(1, tensor_min_valuation(a) - tensor_min_valuation(b) + 1)
            c = EPS.from_int(rng.choice((-2, -1, 1, 2)))
            cases += 1
            for pair in ((a, b), (a, a.scale(c) + b.scale(EPS.eps(shift)))):
                ra, rb, _, _, t = _dvr_reduce_pair(*pair)
                assert not t[0, 1]
                assert ra == pair[0].scale(t[0, 0])
                assert rb == pair[0].scale(t[1, 0]) + pair[1].scale(t[1, 1])
                subtracted += bool(t[1, 0])
    assert cases >= 40 and subtracted >= cases


def test_grassmann_on_stabilizer_transport():
    # the inner step of the builder, standalone: the scaling curve carries
    # the span <W2, P> (corner coefficient nonzero) to <W2, corner>.
    w2 = w_tensor(2, (2, 2), QQ)
    corner = Tensor.from_dict(QQ, (2, 2), {(0, 0): 1})
    p = Tensor.from_dict(QQ, (2, 2), {(0, 0): 1, (1, 1): 3})
    curves = scaling_map_tuple(2, QQ)
    assert grassmann_degenerates(curves, (w2, p), (w2, corner))


def test_construct_on_unit_tensor():
    cert = construct_w_degeneration(unit_tensor(3, 2, QQ), seed=7)
    assert verify_certificate(cert).accepted
    assert cert.target == w_tensor(3, (2, 2, 2), QQ)
    # the inductive step's Grassmannian acceptance, re-verified standalone
    cube = cert.compressed_source()
    s0, s1 = (Tensor(QQ, (2, 2), flatten(cube, [2]).row(i)) for i in (0, 1))
    w2 = w_tensor(2, (2, 2), QQ)
    corner = Tensor.from_dict(QQ, (2, 2), {(0, 0): 1})
    assert grassmann_degenerates(cert.curves[:2], (s0, s1), (w2, corner))


def test_construct_on_w4_itself():
    cert = construct_w_degeneration(w_tensor(4, (2, 2, 2, 2), QQ), seed=3)
    assert verify_certificate(cert).accepted


def test_construct_on_random_3x3x3():
    rng = random.Random(424)
    done = 0
    while done < 3:
        t = random_rational_tensor((3, 3, 3), rng)
        if t.is_zero() or has_rank_one_flattening(t) is not None:
            continue
        cert = construct_w_degeneration(t, seed=500 + done)
        assert verify_certificate(cert).accepted
        assert cert.source == t
        done += 1


def test_construct_exercises_shear_subcase():
    # the unit tensor forces the corner coefficient of the extracted P to be
    # zero, so the shear branch of the stabilizer step must run
    cert = construct_w_degeneration(unit_tensor(3, 2, QQ), seed=1)
    assert verify_certificate(cert).accepted
    shear_entries = [cert.curves[j][0, 1] for j in range(2)]
    assert any(shear_entries)  # off-diagonal terms betray the shear


def test_construct_deterministic():
    t = pad(unit_tensor(3, 2, QQ), (3, 3, 3))
    a = construct_w_degeneration(t, seed=99)
    b = construct_w_degeneration(t, seed=99)
    assert certificate_to_document(a) == certificate_to_document(b)
    c = construct_w_degeneration(t, seed=100)
    assert verify_certificate(c).accepted


def test_construct_semicontinuity_of_signatures():
    rng = random.Random(9)
    certs = [
        unit_to_w_certificate(3),
        unit_to_w_certificate(4),
        construct_w_degeneration(unit_tensor(3, 2, QQ), seed=2),
    ]
    while len(certs) < 5:
        t = random_rational_tensor((3, 3, 3), rng)
        if t.is_zero() or has_rank_one_flattening(t) is not None:
            continue
        certs.append(construct_w_degeneration(t, seed=len(certs)))
    for cert in certs:
        source_sig = rank_signature(cert.compressed_source())
        target_sig = rank_signature(cert.target)
        assert source_sig.dominates(target_sig)


def test_construct_preconditions():
    rank_one = Tensor.from_dict(QQ, (2, 2, 2), {(0, 0, 0): 1})
    with pytest.raises(ValueError):
        construct_w_degeneration(rank_one, seed=1)
    with pytest.raises(FieldMismatchError):
        construct_w_degeneration(unit_tensor(3, 2, GF(2)), seed=1)


def test_construct_k5_two_level_recursion():
    rng = random.Random(51)
    while True:
        t = random_rational_tensor((2,) * 5, rng, bound=2)
        if not t.is_zero() and has_rank_one_flattening(t) is None:
            break
    cert = construct_w_degeneration(t, seed=7000)
    assert verify_certificate(cert).accepted
    cert = construct_w_degeneration(w_tensor(5, (2,) * 5, QQ), seed=5)
    assert verify_certificate(cert).accepted


def test_construct_k4_with_eps_recursion():
    rng = random.Random(77)
    done = 0
    while done < 2:
        t = random_rational_tensor((2, 2, 2, 2), rng, bound=3)
        if t.is_zero() or has_rank_one_flattening(t) is not None:
            continue
        cert = construct_w_degeneration(t, seed=900 + done)
        assert verify_certificate(cert).accepted
        # Grassmannian/tensor-level consistency of the top inductive step
        cube = cert.compressed_source()
        s0, s1 = (Tensor(QQ, (2, 2, 2), flatten(cube, [3]).row(i)) for i in (0, 1))
        w3 = w_tensor(3, (2, 2, 2), QQ)
        corner = Tensor.from_dict(QQ, (2, 2, 2), {(0, 0, 0): 1})
        assert grassmann_degenerates(cert.curves[:3], (s0, s1), (w3, corner))
        done += 1


def _reference_certify_cube(t):
    """The builder with its former slowdown search, kept as an oracle: each
    level tries the inner curve at eps -> eps^N, N = 1..24, and accepts the
    first whose transported slices stay independent over K(eps) and have
    the plane of W and the corner as their Grassmannian limit."""
    field = t.ring
    eps_ring = EpsField(field)
    k = t.order
    if k == 2:
        return _certify_cube(t)
    slices = flatten(t, [k - 1])
    s0, s1 = (Tensor(field, t.dims[:-1], slices.row(i)) for i in (0, 1))
    (alpha, _), s = _choose_slice_combo(s0, s1)
    rec = _reference_certify_cube(s)
    w_prev = w_tensor(k - 1, (2,) * (k - 1), field)
    corner_prev = Tensor.from_dict(field, (2,) * (k - 1), {(0,) * (k - 1): 1})
    shear = _find_shear(_dvr_reduce_pair(_expand(s, rec), _expand(s1 if alpha else s0, rec))[3])
    stab = scaling_map_tuple(k - 1, field)
    if shear is not None:
        stab = tuple(d * lift_matrix(m, eps_ring) for d, m in zip(stab, shear))
    for slowdown in range(1, 25):
        inner = tuple(
            Matrix(eps_ring, m.rows, m.cols, [e.substitute_power(slowdown) for e in m.entries])
            for m in rec
        )
        curve = tuple(d * m for d, m in zip(stab, inner))
        a, b = _expand(s0, curve), _expand(s1, curve)
        if mat_rank(_rows(a, b)) < 2:
            continue
        _, _, a0, b0, transform = _dvr_reduce_pair(a, b)
        top = _coordinates((a0, b0), w_prev)
        bottom = _coordinates((a0, b0), corner_prev)
        if top is not None and bottom is not None:
            last = lift_matrix(Matrix(field, 2, 2, top + bottom), eps_ring) * transform
            return curve + (last,)
    raise AssertionError("no slowdown exponent up to 24 made the limit match")


@st.composite
def _partition_rank_two_cubes(draw):
    k = draw(st.integers(3, 5))
    entries = draw(st.lists(st.integers(-2, 2), min_size=2**k, max_size=2**k))
    t = Tensor(QQ, (2,) * k, entries)
    assume(not t.is_zero() and has_rank_one_flattening(t) is None)
    return t


@settings(max_examples=60, deadline=None)
@given(_partition_rank_two_cubes())
def test_certify_cube_matches_slowdown_search(t):
    assert _certify_cube(t) == _reference_certify_cube(t)


def test_certify_cube_shear_branch_matches_slowdown_search(monkeypatch):
    # the order-4 unit tensor takes the shear at its order-3 level (searched
    # first) and not at the top level
    shears = []

    def recording_find_shear(*plane):
        shears.append(_find_shear(*plane))
        return shears[-1]

    monkeypatch.setattr(degeneration, "_find_shear", recording_find_shear)
    t = unit_tensor(4, 2, QQ)
    curves = _certify_cube(t)
    assert len(shears) == 2 and shears[0] is not None and shears[1] is None
    monkeypatch.undo()
    assert curves == _reference_certify_cube(t)
    cert = DegenerationCertificate(t, w_tensor(4, (2,) * 4, QQ), curves)
    assert verify_certificate(cert)


def _shear_verdict(*plane):
    try:
        return _find_shear(*plane)
    except CertificateConstructionError:
        return "raises"


@st.composite
def _planes_through_w(draw):
    """A tensor p of order 2..4 over Q and an invertible integer recombination
    (x, y) of W and p, so span(x, y) = span(W, p) when p is outside span(W)."""
    k = draw(st.integers(2, 4))
    entries = draw(st.lists(st.integers(-2, 2), min_size=2**k, max_size=2**k))
    if draw(st.booleans()):
        entries[0] = 0  # a zero corner, so that the shear search runs
    p = Tensor(QQ, (2,) * k, entries)
    a, b, c, d = draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    assume(a * d - b * c)
    w = w_tensor(k, (2,) * k, QQ)
    return p, (w.scale(a) + p.scale(b), w.scale(c) + p.scale(d))


@settings(max_examples=150, deadline=None)
@given(_planes_through_w())
def test_find_shear_gives_one_verdict_on_every_basis_of_the_plane(case):
    # a shear fixes W and corner(W) = 0, so on span(W, p) the corner after a
    # shear is a multiple of its value at p
    p, plane = case
    assert _shear_verdict(*plane) == _shear_verdict(p)


def test_certify_cube_transports_each_level_once(monkeypatch):
    # The order-3 and order-4 levels each transport s0 and s1 along their
    # recursive curves (of order 2 and 3) and nothing else; the one other
    # call is the order-4 level's verification of its recursive result.
    calls = []
    verifying = []
    expand, verify = degeneration._expand, degeneration.verify_certificate

    def counting_expand(base, curves):
        calls.append((bool(verifying), len(curves)))
        return expand(base, curves)

    def flagged_verify(cert):
        verifying.append(cert)
        try:
            return verify(cert)
        finally:
            verifying.pop()

    monkeypatch.setattr(degeneration, "_expand", counting_expand)
    monkeypatch.setattr(degeneration, "verify_certificate", flagged_verify)
    _certify_cube(unit_tensor(4, 2, QQ))
    assert [order for inside, order in calls if not inside] == [2, 2, 3, 3]
    assert [order for inside, order in calls if inside] == [3]


def test_verify_refuses_misshapen_compression_before_restricting(monkeypatch):
    # 80x3 maps on a 3x3x3 source would build an 80x80x80 compressed source
    # before its dims were compared with the 2x2x2 target
    rng = random.Random(80)
    maps = tuple(Matrix(QQ, 80, 3, [rng.randint(-1, 1) for _ in range(240)]) for _ in range(3))
    target = w_tensor(3, (2, 2, 2), QQ)
    source = random_rational_tensor((3, 3, 3), rng)
    bad = [
        DegenerationCertificate(source, target, _identity_curves(target.dims), compression=maps),
        DegenerationCertificate(source, target, _identity_curves(target.dims), compression=maps[:2]),
    ]

    def no_restrict(*args):
        raise AssertionError("restrict called before the compression shapes were checked")

    monkeypatch.setattr(degeneration, "restrict", no_restrict)
    for cert in bad:
        with pytest.raises(DimensionMismatchError, match="one map per factor"):
            verify_certificate(cert)


def test_verify_rejects_a_singular_curve_before_compressing(monkeypatch):
    # Every shape and every curve determinant is checked before the source
    # is compressed: a singular copy of a compressed certificate is rejected
    # without a Q restriction, and the valid certificate takes exactly one.
    cert = construct_w_degeneration(random_rational_tensor((3, 3, 3), random.Random(5)), seed=0)
    assert cert.compression is not None
    c0 = cert.curves[0]
    entries = list(c0.entries)
    entries[c0.cols : 2 * c0.cols] = [EPS.zero()] * c0.cols
    singular = DegenerationCertificate(
        cert.source, cert.target, (Matrix(EPS, c0.rows, c0.cols, entries),) + cert.curves[1:],
        compression=cert.compression,
    )
    q_restricts = []

    def counting_restrict(t, maps):
        if t.ring is QQ:
            q_restricts.append(t.dims)
        return restrict(t, maps)

    monkeypatch.setattr(degeneration, "restrict", counting_restrict)
    assert verify_certificate(singular).condition == "singular-curve"
    assert q_restricts == []
    assert verify_certificate(cert).accepted
    assert q_restricts == [(3, 3, 3)]


# sha256 of the saved certificate of construct_w_degeneration(I_{k,2}, seed=0)
UNIT_CERT_SHA256 = {
    3: "7aad3a945e6e7c2661656376999909a2bfcfa3488aa8fd8cd4682629e2da5016",
    4: "6825819dfbef3393b78baa4e393ae640db83cf6b00794d2d70e5ce3ff59ffae8",
    5: "069d1f58422133278b0723cc5746c6aae305572fb6af5180791fe981bd7ac038",
    6: "65d3658692bee78b3389ccf0dd0d7ed8ae5b5f7ad5cb513f8ade37cade53b8eb",
    7: "032b2ec458192aba974e2f1626f2229176447eac820f924b7e4690088f5fae9c",
    8: "8721af7f8cd8c325d4783d92f7b42aa86039fad70b3b38ce2486998d3b733f13",
    9: "da9eeff44e6f58debcd45ae1711c75ff0edc1a3ad34f9f215c323803b72185c7",
    10: "d7d93cf5f747effd197f03fbd613c6541584c2b427481fc2d843ee1c62d74228",
}


@pytest.mark.parametrize("k", sorted(UNIT_CERT_SHA256))
def test_unit_ladder_certificates_byte_identical(k, tmp_path):
    path = tmp_path / f"unit{k}.json"
    save_certificate(construct_w_degeneration(unit_tensor(k, 2, QQ), seed=0), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == UNIT_CERT_SHA256[k]


def test_construct_unit_k7():
    cert = construct_w_degeneration(unit_tensor(7, 2, QQ), seed=0)
    assert verify_certificate(cert).accepted
    assert cert.target == w_tensor(7, (2,) * 7, QQ)
