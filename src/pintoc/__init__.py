"""Parallel-in-time Newton solvers for constrained trajectory optimization.

The solver stack, bottom to top: a generic associative-scan engine that runs
each level of its plan as one batched combine, three scan passes forming one
Newton iteration (co-states, value functions, state propagation), a
regularized iterative Newton method, and two constrained outer loops (primal
log-barrier and ADMM).  Benchmark pendulum / cart-pole swing-up models and an
experiment harness round out the package.
"""

from .bench import (
    BenchmarkRecord,
    MpcLog,
    RunConfig,
    emit_plotdata,
    read_benchmark_csv,
    run_benchmark,
    run_mpc,
    write_benchmark_csv,
)
from .derivcheck import DerivativeReport, check_derivatives, fd_jacobian
from .exceptions import (
    ConditioningError,
    DefinitenessError,
    DerivativeCheckError,
    DimensionError,
    DivergenceError,
    EmptySequenceError,
    InfeasibleError,
    PintocError,
    SolverStalledError,
)
from .fd_models import FiniteDiffCost, FiniteDiffDynamics
from .newton import (
    NewtonOptions,
    NewtonReport,
    gain_ratio,
    newton_solve,
    predicted_reduction,
    regularization_update,
)
from .outer import (
    AdmmAugmentation,
    AdmmOptions,
    BarrierAugmentation,
    BarrierOptions,
    OuterReport,
    OuterRound,
    admm_solve,
    assert_strictly_feasible,
    barrier_solve,
    project_box,
)
from .passes import (
    FeedbackLaw,
    RolloutElement,
    StageExpansion,
    ValueElement,
    costate_pass,
    hamiltonian_expansion,
    propagation_pass,
    rollout_combine,
    value_combine,
    value_elements,
    value_pass,
)
from .problem import (
    AugmentedCost,
    BoxConstraint,
    ControlProblem,
    CostModel,
    DynamicsModel,
    StageDerivatives,
    Trajectory,
    ZeroAugmentation,
    rollout,
    total_cost,
)
from .scan import (
    ScanDirection,
    scan,
    scan_depth_probe,
    scan_plan,
)
from .systems import (
    CartPoleDynamics,
    CartPoleParams,
    JetDynamics,
    LinearDynamics,
    PendulumDynamics,
    PendulumParams,
    QuadraticCost,
    make_swingup_problem,
    pendulum_energy,
    swingup_goal,
    swingup_start,
)

__version__ = "0.1.0"
