"""Command-line interface.

Exit codes: 0 on success, 1 on a negative classification/verification result
(certificate rejected, subrank threshold not met), 2 on usage or document
errors.  All randomness is seed-controlled: --seed, 0 by default.

`main(argv)` may be called any number of times in one process: it parses with
one parser built on the first call and kept, and the same arguments give the
same output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .census import census_222, census_summary, write_census
from .classify import TrichotomyClass, gap_constant, trichotomy
from .degeneration import construct_w_degeneration, verify_certificate
from .errors import TensorGapError
from .io import (
    FORMAT_VERSION,
    _scalar_matrix_to_document,
    load_certificate,
    load_tensor,
    save_certificate,
)
from .ranks import (
    DEFAULT_BRUTE_CEILING,
    rank_signature,
    subrank_bruteforce,
)


def _report_json(report) -> dict:
    doc = {
        "format": FORMAT_VERSION,
        "kind": "classification",
        "trichotomy": report.trichotomy.value,
        "asymptotic-class": report.asymptotic_class.value,
        "constant": {
            "exact": report.constant.description,
            "decimal": report.constant.decimal,
            "lower-bound-only": report.constant.lower_bound_only,
        },
        "confidence": {"kind": report.confidence.kind, "trials": report.confidence.trials},
        "rank-signature": [
            [sorted(a + 1 for a in axes), r] for axes, r in report.rank_signature.items()
        ],
        "cayley-samples": [[seed, value.text()] for seed, value in report.cayley_samples],
    }
    if report.rank_one_witness is not None:
        doc["rank-one-witness"] = sorted(a + 1 for a in report.rank_one_witness)
    if report.unit_witness is not None:
        doc["unit-witness"] = [_scalar_matrix_to_document(m) for m in report.unit_witness]
    if report.unit_witness_note:
        doc["unit-witness-note"] = report.unit_witness_note
    return doc


def _cmd_classify(args) -> int:
    t = load_tensor(args.file)
    report = trichotomy(t, seed=args.seed)
    print(f"trichotomy class : {report.trichotomy.value}")
    print(f"asymptotic class : {report.asymptotic_class.value}")
    bound = ">= " if report.constant.lower_bound_only else ""
    print(f"subrank growth   : {bound}{report.constant.description} = {report.constant.decimal:.6f}")
    print(f"confidence       : {report.confidence.kind}"
          + (f" ({report.confidence.trials} trials)" if report.confidence.trials else ""))
    if report.trichotomy is TrichotomyClass.RESTRICTS_TO_UNIT2:
        if report.unit_witness is not None:
            print("unit witness     : ground-field restriction maps recorded")
        else:
            print(f"unit witness     : {report.unit_witness_note}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(_report_json(report), fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_ranks(args) -> int:
    t = load_tensor(args.file)
    signature = rank_signature(t)
    for axes, r in signature.items():
        pretty = "{" + ",".join(str(a + 1) for a in sorted(axes)) + "}"
        print(f"rk(T_{pretty}) = {r}")
    return 0


def _cmd_subrank(args) -> int:
    t = load_tensor(args.file)
    ok = subrank_bruteforce(t, args.r, ceiling=args.ceiling)
    print(f"subrank >= {args.r}: {'yes' if ok else 'no'}")
    return 0 if ok else 1


def _cmd_verify_cert(args) -> int:
    cert = load_certificate(args.file)
    result = verify_certificate(cert)
    if result:
        print("certificate accepted")
        return 0
    print(f"certificate rejected: {result.condition} ({result.detail})")
    return 1


def _cmd_make_w_cert(args) -> int:
    t = load_tensor(args.file)
    try:
        cert = construct_w_degeneration(t, seed=args.seed)
    except ValueError as exc:
        print(f"cannot construct certificate: {exc}")
        return 1
    save_certificate(cert, args.out)
    print(f"certificate written to {args.out}")
    return 0


def _cmd_census(args) -> int:
    rows = census_222(args.p)
    summary = census_summary(rows)
    write_census(rows, summary, args.out, args.p)
    print(json.dumps(summary, sort_keys=True, indent=2))
    print(f"census written to {args.out}")
    return 0


def _cmd_constant(args) -> int:
    desc, dec = gap_constant(args.k)
    print(f"c_{args.k} = {desc} = {dec:.12f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the command line; `main` keeps one from its first call."""
    parser = argparse.ArgumentParser(
        prog="tensorgap",
        description="Exact subrank-gap classification and degeneration certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="order-3 trichotomy classification")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the structured report here")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("ranks", help="flattening rank signature")
    p.add_argument("file")
    p.set_defaults(func=_cmd_ranks)

    p = sub.add_parser("subrank", help="brute-force subrank test over F_p")
    p.add_argument("file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--ceiling", type=int, default=DEFAULT_BRUTE_CEILING)
    p.set_defaults(func=_cmd_subrank)

    p = sub.add_parser("verify-cert", help="verify a degeneration certificate")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify_cert)

    p = sub.add_parser("make-w-cert", help="construct a W-tensor degeneration certificate")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_w_cert)

    p = sub.add_parser("census", help="classify all of F_p^(2x2x2)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("constant", help="the order-k gap constant")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_constant)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TensorGapError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
