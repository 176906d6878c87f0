"""The tables of size t against the difference kernel, per construction and d.

    python tests/route_sweep.py

runs the sweep of the CI step: every odd prime power t <= 1009 for the
four coset constructions, then t = 3^7 and 61^2 for the two ring
constructions, whose fields are past the field-order budget.  It prints
one line per t and exits 1 naming every mismatch.  The tier-1 tests run
`mismatches` on the prime powers up to 61.
"""

import sys
import time

import numpy as np

from ddfkit import _kernels, residue
from ddfkit.cli import construction_family


def prime_powers(top: int, odd: bool = False) -> list[tuple[int, int]]:
    """(p, r) with 3 <= p^r <= top, by t, odd t only if `odd`."""
    found = []
    for p in range(2, top + 1):
        if all(p % q for q in range(2, int(p ** 0.5) + 1)) and not (odd and p == 2):
            r = 1
            while p ** r <= top:
                if p ** r >= 3:
                    found.append((p, r))
                r += 1
    return sorted(found, key=lambda pr: pr[0] ** pr[1])


def mismatches(p: int, r: int, names=residue.CONSTRUCTIONS) -> list[str]:
    """For each construction of `names` that (p, r) admits, and each d of
    residue.cell_hists: the histogram must equal _kernels.diff_cell_hist's
    at that d alone over the constructed family, whose (v, b, k, lambda)
    must be the construction's.  Returns a line per difference."""
    found = []
    for name in names:
        try:
            c = residue.construction(name, p, r)
        except ValueError:  # e.g. gr-squares at p = 2; BudgetError is one too
            continue
        fam = construction_family(name, p, r)
        if (fam.v, fam.b, fam.k, fam.lam) != (c.v, c.b, c.k, c.lam):
            found.append(f"{name} ({p},{r}): (v, b, k, lambda) {c[4:]} against the "
                         f"family's {(fam.v, fam.b, fam.k, fam.lam)}")
            continue
        g = fam.group
        for d, hist in residue.cell_hists(c).items():
            kernel = _kernels.diff_cell_hist(fam.block_array(), g.base, g.digits, g.order,
                                             [d], [1])
            if not np.array_equal(hist, kernel):
                found.append(f"{name} ({p},{r}) d = {d}: {hist.tolist()} against "
                             f"the kernel's {kernel.tolist()}")
    return found


def main() -> int:
    rings = tuple(name for name in residue.CONSTRUCTIONS if name.startswith("gr-"))
    cases = [(p, r, residue.CONSTRUCTIONS) for p, r in prime_powers(1009, odd=True)]
    cases += [(3, 7, rings), (61, 2, rings)]
    failures = []
    for p, r, names in cases:
        start = time.perf_counter()
        found = mismatches(p, r, names)
        print(f"t = {p}^{r}: {'ok' if not found else 'MISMATCH'} "
              f"({time.perf_counter() - start:.2f} s)")
        failures += found
    if failures:
        sys.exit("\n".join(failures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
