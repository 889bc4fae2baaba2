"""Causal event posets quantified by embedded observer chains.

Particle chains plus pairwise influence edges form a causal poset; projecting
events onto observer chains yields interval pairs, an invariant interval
scalar, emergent (t, x) coordinates and Lorentz-analog boosts.  Free-particle
influence sequences give zig-zag paths and rate-based kinematics, and the
consistent amplitude calculus over those sequences is the 1+1D checkerboard
propagator.
"""

from importlib import import_module as _import_module

# the move letters and the ordering cap, which kinematics and checkerboard both
# import from here, so that neither has to load the other for them
P_MOVE = "P"
Q_MOVE = "Q"
DEFAULT_ENUMERATION_CAP = 10**6

# the public names of each submodule; a submodule loads on first use of one of
# its names
_SUBMODULE_NAMES = {
    "errors": (
        "BoundaryError", "CapExceededError", "CausetkitError", "CoordinationUndecidableError",
        "CycleError", "PosetStructureError", "SchemaError", "UnknownEventError",
        "UnquantifiableIntervalError",
    ),
    "exact": ("Surd", "collapse", "sqrt_exact"),
    "poset": (
        "CausalPoset", "ValidationReport", "Violation", "build_poset", "causal_leq", "dual",
        "load_poset", "save_poset", "topological_order", "validate",
    ),
    "quantify": (
        "ANTICHAIN_LIKE", "CHAIN_LIKE", "MODE_COORDINATED", "MODE_SINGLE_CHAIN", "PROJECTION_LIKE",
        "ChainValuation", "IntervalPair", "IntervalScalar", "LinearRelation", "Projection",
        "SpacetimeInterval", "backward_project", "chain_length", "check_coordination", "decompose",
        "distance", "forward_project", "from_spacetime", "interval_pair", "interval_scalar",
        "length", "lorentz_transform", "metric_scalar", "pair_transform", "quantification_rows",
        "to_spacetime",
    ),
    "kinematics": (
        "InfluenceSequence", "KinematicState", "SpacetimePath", "UnorderedInfluenceCount",
        "count_orderings", "enumerate_orderings", "kinematic_state", "path_rows",
        "random_sequence", "rates", "sequence_to_path", "transform_energy_momentum",
        "transform_rates",
    ),
    "checkerboard": (
        "Amplitude", "CheckerboardField", "ConstraintReport", "DerivedWeighting",
        "FeynmanWeighting", "KernelColumns", "PathWeight", "PropagatorPair", "Spinor", "amp_add",
        "amp_mul", "born", "expand_sequence", "kernel", "kernel_discrepancy", "kernel_history",
        "kernel_matrix", "kernel_pathsum", "make_propagators", "measurement_amplitude",
        "parallel_join", "path_weight", "propagators_from_mass", "propagators_from_theta",
        "reversal_count", "sequence_amplitude", "series_join", "step_field",
        "transition_magnitude_solutions", "unordered_amplitude", "verify_propagator_constraints",
        "zero_momentum_propagators",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = [*_SUBMODULE_NAMES, *_SUBMODULE_OF, "DEFAULT_ENUMERATION_CAP", "P_MOVE", "Q_MOVE"]


def __getattr__(name):
    # import_module, not "from . import x", whose hasattr check would call this hook again
    if name in _SUBMODULE_NAMES:
        return _import_module(f".{name}", __name__)
    if name in _SUBMODULE_OF:
        return getattr(_import_module(f".{_SUBMODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
