"""Disjoint difference families in finite fields and Galois rings GR(p^2, r).

Constructs the cyclotomic-coset and Teichmüller-coset families, develops
them into 2-designs, and computes exact block-intersection profiles,
cyclotomic-number tables, and profile-based nonisomorphism certificates.
All arithmetic is exact integer arithmetic.
"""

__version__ = "0.1.0"

import os

# One OpenBLAS thread unless the caller asks for more: only the Gram route's
# np.matmul would use a pool, and OpenBLAS reads this once, when numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import BudgetError, ProfileCheckError
from .fields import Field, build_field
from .arith import wieferich
from .galois_ring import GaloisRing, build_ring
from .families import (DifferenceFamily, ValidationReport, davis_family,
                       feng_families, furino_family, load_family, save_family,
                       squares_family, validate_ddf, wilson_family)
from .designs import (Design, Development, IntersectionProfile, IsoResult, develop,
                      iso_oracle, load_design, profile_direct,
                      profile_via_differences, save_design, verify_2design)
from .cyclotomy import (CyclotomicTable, check_sum_relation,
                        closed_form_order_2e, closed_form_order_e,
                        cyclotomic_table, dickson_counts, unknown_quadruples)
from .certify import (BoundReport, ComparisonResult, CosetCountReport,
                      GateReport, bound_report, certificate, compare_designs,
                      gate, sn_coset_counts, wilson_half_profile_closed_form,
                      wilson_profile_closed_form)

__all__ = [
    "BudgetError", "ProfileCheckError",
    "Field", "build_field",
    "GaloisRing", "build_ring",
    "DifferenceFamily", "ValidationReport", "davis_family", "feng_families",
    "furino_family", "load_family", "save_family", "squares_family",
    "validate_ddf", "wilson_family",
    "Design", "Development", "IntersectionProfile", "IsoResult", "develop", "iso_oracle",
    "load_design", "profile_direct", "profile_via_differences", "save_design",
    "verify_2design",
    "CyclotomicTable", "check_sum_relation", "closed_form_order_2e",
    "closed_form_order_e", "cyclotomic_table", "dickson_counts",
    "unknown_quadruples",
    "BoundReport", "ComparisonResult", "CosetCountReport", "GateReport",
    "bound_report", "certificate", "compare_designs", "gate",
    "sn_coset_counts", "wieferich",
    "wilson_half_profile_closed_form", "wilson_profile_closed_form",
    "__version__",
]
