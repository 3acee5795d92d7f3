"""The benchmark's tracer (bench/tracing.py) patches package attributes by
name.  Installing it here makes a rename or removal of a patched attribute
fail the test suite, not only the traced benchmark run."""

import pathlib
import sys
import types

import pytest

import tensorgap
from tensorgap.errors import SearchBudgetError
from tensorgap.fields import GF, QQ, FieldSpec, Scalar
from tensorgap.tensors import Tensor, pad, unit_tensor

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    """bench/tracing.py as a fresh module, without writing bytecode beside it."""
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def _package_state(tracing):
    """Every attribute the tracer may patch: module namespaces and class dicts."""
    state = {}
    for name, module in sys.modules.items():
        if name == "tensorgap" or name.startswith("tensorgap."):
            state[name] = dict(vars(module))
    for short, cls_name, _ in tracing.METHODS:
        cls = getattr(sys.modules[f"tensorgap.{short}"], cls_name)
        state[cls_name] = dict(vars(cls))
    for cls in (Scalar, FieldSpec):
        state[cls.__name__] = dict(vars(cls))
    return state


def test_tracer_counts_scalar_ops_and_uninstalls():
    tracing = _load_tracing()
    before = _package_state(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert vars(Scalar)["__add__"] is not before["Scalar"]["__add__"]
        tracer.on = True
        QQ.one() + QQ.one()
        assert tracer.counts["fields.scalar_ops"] == 1
        f4 = GF(2, 2)
        f4.one() + f4.one()  # extension-field scalars are the same class
        assert tracer.counts["fields.scalar_ops"] == 2
        assert tensorgap.fields.QQ.from_int(2) - 1 == QQ.one()
        assert tracer.counts["fields.scalar_ops"] == 3
        assert tracer.counts["fields.coerce"] >= 1
        assert tracer.counts["fields.spec_eq"] == 0
    finally:
        tracer.uninstall()
    after = _package_state(tracing)
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys(), key
        for attr, value in attrs.items():
            assert after[key][attr] is value, f"{key}.{attr} not restored"


def test_traced_q_compression_keeps_its_spans(monkeypatch):
    # The per-layer metric ranks.compress.attempts_per_call (restrict spans
    # under ranks.compress) counts the Q work of generic_compress: one
    # restriction per attempt, taken by the integer kernel in one pass (no
    # per-axis mode product), and one flattening gate per attempt.  The gate
    # tests rows for proportionality in place, so it opens no rank span.
    unit = pad(unit_tensor(3, 2, QQ), (3, 3, 3))
    rank_one = Tensor.from_dict(QQ, (3, 3, 3), {(0, i, j): i + j for i in range(3) for j in range(3)})
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.on = True
        tensorgap.ranks.generic_compress(unit, seed=0)
        monkeypatch.setattr(tensorgap.ranks, "DEFAULT_COMPRESS_BUDGET", 5)
        with pytest.raises(SearchBudgetError) as info:
            tensorgap.ranks.generic_compress(rank_one, seed=0)
    finally:
        tracer.uninstall()
    calls, _ = tracer.span_totals()
    assert calls["ranks.compress"] == 2
    restricts = tracer.child_calls("ranks.compress", "tensors.restrict")
    gates = tracer.child_calls("ranks.compress", "ranks.rank_one_gate")
    # every attempt restricts once and (its result being nonzero here) gates it
    assert restricts == calls["tensors.restrict"] == gates >= 1 + info.value.attempts
    assert tracer.child_calls("tensors.restrict", "tensors.mode_apply") == 0
    assert not [name for name in calls if name.startswith("linalg.rank.")]


def test_traced_f2_gates_keep_their_rank_spans():
    # The per-layer metrics linalg.rank.fp.* count the F_2 work of the
    # order-4 gates: the partition-rank gate reaches mat_rank at each order-2
    # leaf (over F_2 and, for this tensor's recheck, F_8), and the signature
    # ranks its 7 canonical flattenings.
    support = [(0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 0)]
    t = Tensor.from_dict(GF(2), (2, 2, 2, 2), {idx: 1 for idx in support})
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.on = True
        assert tensorgap.ranks.pr_at_least_two(t) is True
        tensorgap.ranks.rank_signature(t)
    finally:
        tracer.uninstall()
    calls, _ = tracer.span_totals()
    assert calls["ranks.pr_gate"] == calls["ranks.signature"] == 1
    gate_ranks = tracer.child_calls("ranks.pr_gate", "linalg.rank.fp")
    assert gate_ranks > 0
    assert tracer.child_calls("ranks.signature", "linalg.rank.fp") == 7
    assert calls["linalg.rank.fp"] == gate_ranks + 7


def test_traced_verifier_opens_no_linalg_span():
    # The verifier runs no linear algebra over K(eps): each curve's
    # invertibility is a base-field rank test of the curve at a few points,
    # taken by private kernels, so no linalg span of any ring is opened.  Its
    # one expansion is a tensors.restrict span beneath it.
    cert = tensorgap.degeneration.unit_to_w_certificate(3)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.on = True
        assert tensorgap.degeneration.verify_certificate(cert)
    finally:
        tracer.uninstall()
    calls, _ = tracer.span_totals()
    assert calls["degeneration.verify"] == 1
    assert not [name for name in calls if name.startswith("linalg.")]
    assert calls["tensors.restrict"] == 1
    assert tracer.child_calls("degeneration.verify", "tensors.restrict", direct=False) == 1
