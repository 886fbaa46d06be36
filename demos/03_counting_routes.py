#!/usr/bin/env python3
"""All counting routes agreeing on e(S5, S5) = 32 and e(S5, A5 x C2) = 20.

Four independent implementations meet: the closed-form censuses, the
symmetric-group involution formulas, the holomorph enumeration, and (for
the product type) fixed-point-free homomorphism pairs.
"""

from hgs import (
    count_byott,
    count_fpf_inner_holomorph,
    count_product_type,
    count_self_type,
    count_sn,
    resolve_spec,
)
from hgs.report import emit_report

S5 = resolve_spec("S5")
N = resolve_spec("AxCp(A5,2)")

results = [
    count_self_type(S5, g_label="S5"),
    count_sn(5, "Sn"),
    count_byott(S5, S5, g_label="S5", n_label="S5"),
    count_product_type(S5, g_label="S5", n_label="A5xC2"),
    count_sn(5, "AnxC2"),
    count_byott(S5, N, g_label="S5", n_label="A5xC2"),
    count_fpf_inner_holomorph(S5, N, g_label="S5", n_label="A5xC2"),
]
print(emit_report(results, "table"))
