"""Finite-field census of all 2x2x2 tensors: orbit labels against oracles.

Every tensor in F_p^(2x2x2) is enumerated by a canonical integer id (base-p
digits over the row-major flat index), classified by rank signature and
hyperdeterminant, and cross-checked against the brute-force subrank oracle.
The enumeration space can be partitioned across worker processes; rows are
merged in id order, so the output bytes do not depend on the worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .classify import Orbit222, _orbit_label, cayley_hyperdet
from .errors import FieldMismatchError, SearchSpaceTooLargeError
from .fields import GF
from .linalg import mat_rank
from .ranks import subrank_bruteforce
from .tensors import Tensor, flatten

CENSUS_MAX_PRIME = 3

_GAP_BY_LABEL = {
    Orbit222.ZERO: "zero",
    Orbit222.RANK_ONE: "1",
    Orbit222.PENCIL_1X2: "1",
    Orbit222.PENCIL_2X1: "1",
    Orbit222.PENCIL_2X2_SPLIT: "1",
    Orbit222.W_CLASS: "c3",
    Orbit222.UNIT_CLASS: "at-least-2",
}


@dataclass(frozen=True)
class CensusRow:
    tensor_id: int
    label: Orbit222
    ranks: tuple  # single-factor flattening ranks (r1, r2, r3)
    cayley: str  # textual scalar value
    subrank: int  # brute-force subrank over the ground field
    gap_class: str  # asymptotic class implied by the label

    def tsv(self) -> str:
        return "\t".join(
            [
                str(self.tensor_id),
                self.label.value,
                ",".join(str(r) for r in self.ranks),
                self.cayley,
                str(self.subrank),
                self.gap_class,
            ]
        )


def tensor_from_id(tensor_id: int, p: int) -> Tensor:
    """Decode a canonical id: base-p digits over the row-major flat index."""
    field = GF(p)
    if not 0 <= tensor_id < p**8:
        raise ValueError(f"id {tensor_id} out of range for p={p}")
    return Tensor._from_raw(field, (2, 2, 2), [tensor_id // p**i % p for i in range(8)])


def tensor_to_id(t: Tensor) -> int:
    if not t.ring.is_prime_field:
        raise FieldMismatchError(f"census ids are defined over prime fields, not {t.ring.name}")
    return sum(e * t.ring.p**i for i, e in enumerate(t.entries))


def _census_row(tensor_id: int, p: int) -> CensusRow:
    t = tensor_from_id(tensor_id, p)
    ranks = tuple(mat_rank(flatten(t, [a])) for a in range(3))
    cay = cayley_hyperdet(t)
    label = _orbit_label(ranks, cay)
    if t.is_zero():
        subrank = 0
    else:
        subrank = 2 if subrank_bruteforce(t, 2) else 1
    return CensusRow(
        tensor_id=tensor_id,
        label=label,
        ranks=ranks,
        cayley=cay.text(),
        subrank=subrank,
        gap_class=_GAP_BY_LABEL[label],
    )


def _census_chunk(args) -> list:
    start, stop, p = args
    return [_census_row(i, p) for i in range(start, stop)]


def census_222(p: int, workers: int = 1, max_prime: int = CENSUS_MAX_PRIME) -> list:
    """One row per tensor in F_p^(2x2x2), in canonical id order.

    Guarded: p^8 rows are enumerated, so by default only p <= 3 is allowed.
    """
    if p > max_prime:
        raise SearchSpaceTooLargeError(
            f"census over F_{p} has {p**8} rows, above the p <= {max_prime} guard",
            size=p**8,
        )
    GF(p)  # validates primality
    total = p**8
    if workers <= 1:
        return [_census_row(i, p) for i in range(total)]
    chunk = (total + workers - 1) // workers
    spans = [(lo, min(lo + chunk, total), p) for lo in range(0, total, chunk)]
    rows: list = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_census_chunk, spans):
            rows.extend(part)
    rows.sort(key=lambda r: r.tensor_id)
    return rows


def census_summary(rows) -> dict:
    counts: dict = {}
    for row in rows:
        counts[row.label.value] = counts.get(row.label.value, 0) + 1
    return {
        "total": len(rows),
        "label-counts": dict(sorted(counts.items())),
        "unit-class-subrank-2": sum(
            1 for r in rows if r.label is Orbit222.UNIT_CLASS and r.subrank == 2
        ),
        "unit-class-subrank-1": sum(
            1 for r in rows if r.label is Orbit222.UNIT_CLASS and r.subrank == 1
        ),
        "w-class-subrank-1": sum(
            1 for r in rows if r.label is Orbit222.W_CLASS and r.subrank == 1
        ),
    }


def write_census(rows, summary: dict, path, p: int) -> None:
    """Flat TSV table plus a trailing structured summary block."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# tensorgap-census\tformat=1\tp={p}\n")
        fh.write("# id\tlabel\tranks\tcayley\tsubrank\tgap-class\n")
        for row in rows:
            fh.write(row.tsv() + "\n")
        fh.write("# summary " + json.dumps(summary, sort_keys=True) + "\n")
