"""losscarto: exact algebra of ReLU square-loss surfaces, plus the attack.

The loss of a ReLU network without biases is piecewise polynomial in the
weights.  This package builds that structure exactly — virtual
polynomials per activation pattern, their layer-wise homogeneity, the
bottleneck factorization, the semi-algebraic region decomposition with
its wall sheets — and uses it to reconstruct training inputs (up to
scalar multiple) and the architecture from oracle access to the loss.
"""

from .attack import (
    AttackConfig,
    KinkPoint,
    LossOracle,
    ReconstructionReport,
    detect_kinks_on_line,
    recover_architecture,
    run_attack,
)
from .errors import (
    AdjacencyError,
    BoundaryError,
    DegreeError,
    EnumerationBudgetError,
    InstanceError,
    LosscartoError,
    NonFiniteLossError,
    QueryBudgetExceeded,
    RecoveryError,
    SamplingError,
    ShapeError,
    SpuriousKinkError,
    ZeroVirtualPolynomialError,
)
from .instances import (
    Instance,
    gen_instance,
    instance_from_json,
    load_instance,
    make_oracle,
    save_instance,
)
from .network import (
    ActivationSet,
    NetworkShape,
    TrainingSample,
    as_fraction,
    check_samples,
    forward,
    loss,
    make_loss_fn,
)
from .polyalg import Poly, layerwise_degree
from .surface import (
    Region,
    Sheet,
    enumerate_singular_sheets,
    region_loss_polynomial,
    region_of,
    sample_independent_sheets,
    sheet_report,
    wall_between,
)
from .virtual import (
    Factorization,
    enumerate_virtual_polynomials,
    factorize,
    virtual_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationSet",
    "AdjacencyError",
    "AttackConfig",
    "BoundaryError",
    "DegreeError",
    "EnumerationBudgetError",
    "Factorization",
    "Instance",
    "InstanceError",
    "KinkPoint",
    "LossOracle",
    "LosscartoError",
    "NetworkShape",
    "NonFiniteLossError",
    "Poly",
    "QueryBudgetExceeded",
    "ReconstructionReport",
    "RecoveryError",
    "Region",
    "SamplingError",
    "ShapeError",
    "Sheet",
    "SpuriousKinkError",
    "TrainingSample",
    "ZeroVirtualPolynomialError",
    "as_fraction",
    "check_samples",
    "detect_kinks_on_line",
    "enumerate_singular_sheets",
    "enumerate_virtual_polynomials",
    "factorize",
    "forward",
    "gen_instance",
    "instance_from_json",
    "layerwise_degree",
    "load_instance",
    "loss",
    "make_loss_fn",
    "make_oracle",
    "recover_architecture",
    "region_loss_polynomial",
    "region_of",
    "run_attack",
    "sample_independent_sheets",
    "save_instance",
    "sheet_report",
    "virtual_polynomial",
    "wall_between",
]
