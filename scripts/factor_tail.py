"""The cofactors that the qf-forms benchmark hands to the splitter, and how
much of the splitting budget the worst of them needs.

    PYTHONPATH=src python3 scripts/factor_tail.py 0 60 [--sympy]

For each seed in [first, last) it builds the qf-forms inputs with
perfbench/workloads.build, writing them into a temporary directory (the
perfbench tree is only imported), and runs relevant_odd_primes on every
Gram file of the timed rounds; the known-defect probe is left out.  Every
distinct cofactor that reaches factoring.prime_factors is split once,
without the cache, while the Pollard-Brent steps and ECM curves of each
split are counted.  It prints the number of cofactors, the worst rho steps
and ECM curves of one split against their budgets, and the slowest
cofactor.  --sympy also checks each cofactor's primes against
sympy.factorint.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from topinv import factoring as fc  # noqa: E402
from topinv import quadforms as qf  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("first", type=int)
    ap.add_argument("last", type=int)
    ap.add_argument("--sympy", action="store_true",
                    help="check every factorization against sympy.factorint")
    args = ap.parse_args(argv)

    # per split: [rho steps, ECM curves]; per cofactor: (seconds, primes)
    splits, cofactors = [], {}
    brent, ecm, find_factor = fc._brent, fc._ecm, fc._find_factor
    split_cofactor = fc.prime_factors.__wrapped__  # past the cache

    def counted_brent(n, c, budget):
        g, used = brent(n, c, budget)
        splits[-1][0] += used
        return g, used

    def counted_ecm(n, sigma):
        splits[-1][1] += 1
        return ecm(n, sigma)

    def counted_find_factor(n):
        splits.append([0, 0])
        return find_factor(n)

    def timed_split(n):
        if n not in cofactors:
            t0 = time.perf_counter()
            try:
                primes = split_cofactor(n)
            except qf.FormError:  # over budget: the op would exit 1
                primes = None
            cofactors[n] = (time.perf_counter() - t0, primes)
        if cofactors[n][1] is None:
            raise qf.FormError(f"{len(str(n))}-digit cofactor over budget")
        return cofactors[n][1]

    fc._brent, fc._ecm = counted_brent, counted_ecm
    fc._find_factor, fc.prime_factors = counted_find_factor, timed_split
    with tempfile.TemporaryDirectory() as tmp:
        workloads.HERE = Path(tmp)
        for seed in range(args.first, args.last):
            plan = workloads.build("qf-forms", seed)
            files = {a for r in plan["rounds"] for op in r
                     for a in op["argv"] if a.endswith(".qf")}
            for path in sorted(files):
                try:
                    qf.relevant_odd_primes(
                        qf.parse_gram(Path(path).read_text()))
                except qf.FormError:
                    pass

    if not cofactors:
        print("no cofactor reached the splitter")
        return 0
    digits = max(len(str(n)) for n in cofactors)
    rho = max(s[0] for s in splits) if splits else 0
    curves = max(s[1] for s in splits) if splits else 0
    slow = max(cofactors, key=lambda n: cofactors[n][0])
    failed = [n for n, (_, primes) in cofactors.items() if primes is None]
    print(f"seeds {args.first}-{args.last - 1}: {len(cofactors)} distinct "
          f"cofactors of at most {digits} digits, {len(splits)} splits, "
          f"{sum(s[1] > 0 for s in splits)} of them reaching ECM")
    print(f"worst rho steps in one split: {rho} of {fc._RHO_STEPS}")
    print(f"worst ECM curves in one split: {curves} of {fc._ECM_CURVES} "
          f"(B1 = {fc._ECM_B1}, B2 = {fc._ECM_B2})")
    print(f"slowest cofactor: {cofactors[slow][0]:.3f} s, "
          f"{len(str(slow))} digits ({slow})")
    print(f"all cofactors: {sum(t for t, _ in cofactors.values()):.1f} s; "
          f"over budget: {len(failed)}")
    for n in failed:
        print(f"  OVER BUDGET {n}")
    if args.sympy:
        from sympy import factorint
        bad = [n for n, (_, primes) in cofactors.items()
               if primes is not None and tuple(sorted(factorint(n))) != primes]
        split = len(cofactors) - len(failed)
        print(f"sympy.factorint agrees on {split - len(bad)} of {split} "
              f"split cofactors")
        for n in bad:
            print(f"  MISMATCH {n}: {cofactors[n][1]}")
        failed += bad
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
