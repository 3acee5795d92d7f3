"""The criterion-6 list: order-4 F_2 tensors whose partition-rank gate answer
is a miss (the gate says "no" although no flattening has rank one).

  python3 bench/criterion6.py          # recompute; exit 1 if criterion6_misses.txt differs
  python3 bench/criterion6.py --write  # recompute and rewrite criterion6_misses.txt

It runs the gate and the signature oracle on all 65,535 nonzero tensors, as
the benchmark's order4-gate operation does, which takes about a minute.
A gate that improves only shrinks the list; the benchmark treats a miss on a
tensor outside it as an unexpected failure.
"""

from __future__ import annotations

import sys

import measure  # noqa: F401  first: it puts the package sources on the path
import workloads


def misses() -> list:
    found = []
    for code in range(1, 2**16):
        gate, signature = workloads.gate_answers(workloads.order4_tensor(code), code)
        if not gate and all(r >= 2 for _, r in signature.items()):
            found.append(code)
    return found


def main(argv) -> int:
    found = misses()
    print(f"{len(found)} gate misses among the nonzero order-4 F_2 tensors")
    if "--write" in argv:
        with open(workloads.CRITERION6_FILE, encoding="utf-8") as fh:
            header = [line for line in fh if line.startswith("#")]
        with open(workloads.CRITERION6_FILE, "w", encoding="utf-8") as fh:
            fh.writelines(header + [f"{code}\n" for code in found])
        return 0
    if set(found) != workloads.CRITERION6_MISSES:
        print(f"{workloads.CRITERION6_FILE} lists {len(workloads.CRITERION6_MISSES)} tensors; it is out of date")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
