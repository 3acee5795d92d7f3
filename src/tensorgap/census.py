"""Finite-field census of all 2x2x2 tensors: orbit labels against oracles.

Every tensor in F_p^(2x2x2) is enumerated by a canonical integer id (base-p
digits over the row-major flat index) and classified by its flattening ranks
and hyperdeterminant.  Subrank is invariant under GL_2(F_p)^3, so the
brute-force subrank oracle runs once per orbit, on the orbit's smallest id;
every other row takes that subrank after its label is checked against the
leader's.  Rows come out in id order from one process.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import Orbit222, _orbit_label, cayley_hyperdet
from .errors import (
    ClassificationInconsistencyError,
    DimensionMismatchError,
    FieldMismatchError,
    SearchSpaceTooLargeError,
)
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
    """The canonical id of a 2x2x2 tensor over a prime field (inverse of tensor_from_id)."""
    if not t.ring.is_prime_field:
        raise FieldMismatchError(f"census ids are defined over prime fields, not {t.ring.name}")
    if t.dims != (2, 2, 2):
        raise DimensionMismatchError(f"census ids are defined for dims (2,2,2), got {t.dims}")
    return sum(e * t.ring.p**i for i, e in enumerate(t.entries))


def _orbit_leaders(p: int) -> list:
    """The smallest id of each id's GL_2(F_p)^3 orbit, indexed by id.

    Orbits are walked in id order under generators of GL_2(F_p) applied to
    one axis at a time: [[1, 1], [0, 1]], the swap and diag(a, 1) for
    a = 2..p-1.  Axis permutations are not used: they do not preserve the
    1x2 / 2x1 pencil labels.  A generator acts on an id's 8 residues in
    pairs (i, i + s), s the stride of its axis.
    """
    gens = [(1, 1, 0, 1), (0, 1, 1, 0)] + [(a, 0, 0, 1) for a in range(2, p)]
    axes = [[(i, i + s) for i in range(8) if not i & s] for s in (4, 2, 1)]
    places = [p**i for i in range(8)]
    leaders = [None] * p**8
    for leader in range(p**8):
        if leaders[leader] is not None:
            continue
        leaders[leader] = leader
        stack = [leader]
        while stack:
            x = stack.pop()
            e = [x // q % p for q in places]
            for pairs in axes:
                for g00, g01, g10, g11 in gens:
                    f = e[:]
                    for i, j in pairs:
                        f[i] = (g00 * e[i] + g01 * e[j]) % p
                        f[j] = (g10 * e[i] + g11 * e[j]) % p
                    image = sum(c * q for c, q in zip(f, places))
                    if leaders[image] is None:
                        leaders[image] = leader
                        stack.append(image)
    return leaders


def census_222(p: int) -> list:
    """One row per tensor in F_p^(2x2x2), in canonical id order.

    Ranks, hyperdeterminant and label are computed per row; the brute-force
    subrank only for each orbit's leader.  Raises
    ClassificationInconsistencyError if a label is not constant on an orbit.
    Guarded: p^8 rows are enumerated, so only p <= CENSUS_MAX_PRIME is allowed.
    """
    if p > CENSUS_MAX_PRIME:
        raise SearchSpaceTooLargeError(
            f"census over F_{p} has {p**8} rows, above the p <= {CENSUS_MAX_PRIME} guard",
            size=p**8,
        )
    rows: list = []
    for tensor_id, leader in enumerate(_orbit_leaders(p)):
        t = tensor_from_id(tensor_id, p)
        ranks = tuple(mat_rank(flatten(t, [a])) for a in range(3))
        cay = cayley_hyperdet(t)
        label = _orbit_label(ranks, cay)
        if leader == tensor_id:
            subrank = 0 if t.is_zero() else 2 if subrank_bruteforce(t, 2) else 1
        elif rows[leader].label is label:
            subrank = rows[leader].subrank
        else:
            raise ClassificationInconsistencyError(
                f"id {tensor_id} is {label.value} but its orbit leader {leader} is not"
            )
        rows.append(CensusRow(tensor_id, label, ranks, cay.text(), subrank, _GAP_BY_LABEL[label]))
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
