"""Exact algebra tables, coadjoint orbits and verified dynamics for the
conformal extensions of Galilei symmetry."""

from .algebra import (
    AlgebraSpec,
    GeneratorId,
    bracket,
    build_algebra,
    conformal_basis,
    conformal_basis_inverse,
    dump_table,
    jacobi_worst,
)
from .coadjoint import (
    OrbitClass,
    OrbitLabel,
    casimir_values,
    classify_orbit,
    coad_closed_form,
    coad_generic,
    dual_fields,
    pack_dual,
    parametrize,
)
from .dynamics import (
    FREE,
    HamiltonianChoice,
    Trajectory,
    integrate,
    verify_motion_order,
)
from .poisson import (
    PhasePoint,
    Poly,
    StructureMatrix,
    from_darboux,
    generators_at,
    raw_bracket,
    to_darboux,
)
from .symmetry import (
    ConformalMap,
    GalileiMap,
    GalileiParams,
    conformal_time,
    conformal_transform,
    galilei_transform,
    integrals_of_motion,
    map_trajectory,
)
from .verify import run_suites

__version__ = "0.1.0"
