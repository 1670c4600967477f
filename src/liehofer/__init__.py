"""Exact-arithmetic toolkit for circle subgroups on coadjoint orbits:
root-system combinatorics, virtual and Riemannian indices, Hofer lengths,
loop-group Morse series, SU(2) Hessian numerics, and the CP^1 quantum
leading term."""

from .circle_index import (
    CircleSubgroup,
    IndexReport,
    WeightMultiset,
    index_equality_report,
    riemannian_index_conjugate,
    virtual_index,
    weights_at_max,
)
from .hofer import (
    NormReport,
    check_norm_inequality,
    hofer_length_circle,
    positive_norm,
)
from .loop_morse import (
    CriticalStratum,
    TruncatedSeries,
    bott_index,
    enumerate_critical_strata,
    omega_g_series,
    stratum_poincare,
    transgression_series,
)
from .quantum_cp1 import (
    FUND,
    PT,
    PsiLeadingReport,
    QuantumElement,
    is_invertible,
    psi_leading,
    quantum_product,
)
from .root_system import (
    Coweight,
    RootSystem,
    build_root_system,
    dominant_representative,
    from_label,
    inner,
    pairing,
    weyl_orbit,
    weyl_poincare,
)
from .su2_loops import (
    DiscreteLoop,
    SpectralReport,
    discrete_energy,
    discrete_lplus,
    geodesic_loop,
    hessian_spectrum,
)

__version__ = "0.1.0"
