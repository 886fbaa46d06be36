"""hgs: finite group arithmetic and Hopf-Galois structure counting.

The package provides index-based finite group machinery (Cayley tables,
automorphism groups, homomorphism enumeration), the holomorph engine for
regular-subgroup enumeration through crossed homomorphisms, structure
screening for almost simple groups with prime-index socle, and four
independent counting routes cross-checked by named verification suites.

``import hgs`` loads the engine alone.  The verification suites
(``hgs.verify``), the report renderer (``hgs.report``) and the command
line (``hgs.cli``) are imported from their own modules, so a count that
never uses them does not pay for them.

hgs runs one process and one thread.  hgs makes no BLAS call, so importing
the package sets ``OPENBLAS_NUM_THREADS=1`` unless the caller has already
set it, and no count starts a worker process.
"""

import os

# hgs makes no BLAS call (tests/test_no_blas_calls.py), so the thread pool
# that OpenBLAS starts on ``import numpy`` would only cost start-up time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .groups import (
    CapExceededError,
    EngineError,
    FiniteGroup,
    GroupError,
    PermRep,
    Subgroup,
    center,
    centralizer,
    commutator_subgroup,
    direct_product,
    from_perm_gens,
    is_perfect,
    is_solvable,
    normal_subgroups,
    order_census,
    quotient_group,
    subgroup_closure,
)
from .morphisms import (
    AutomorphismGroup,
    Homomorphism,
    are_isomorphic,
    automorphism_group,
    enumerate_homomorphisms,
    fixed_points,
)
from .holomorph import (
    CrossedHom,
    RegularSubgroup,
    crossed_homomorphisms,
    derive_h,
    dual_regular_subgroup,
    induce_on_quotient,
    is_characteristic,
    lambda_perms,
    normalized_by,
    regular_subgroups_in_holomorph,
    rho_perms,
)
from .screening import (
    InnerUniquenessCheck,
    ScreeningReport,
    StructureClass,
    check_inner_unique_in_aut,
    classify_group,
    reverify_report,
    screen_candidate,
)
from .counting import (
    BruteForceResult,
    CountResult,
    all_regular_subgroups_of_sym,
    count_brute_force,
    count_byott,
    count_fpf_inner_holomorph,
    count_product_type,
    count_self_type,
    count_sn,
    sn_involution_census,
)
from .catalog import (
    SpecError,
    catalog_aut6_tower,
    load_group_file,
    resolve_spec,
)
from .fields import GaloisField, field_axioms_hold, gf

__version__ = "0.1.0"
