"""Exact inference over discrete graphical models by bucket elimination.

The package covers posterior beliefs, most-probable-explanation and maximum
a-posteriori queries over belief networks, maximum-expected-utility decisions
over influence diagrams, a conditioning hybrid that trades table width for
enumeration, and directional resolution over propositional CNF theories.
Every algorithm runs along an explicit variable ordering and is deterministic:
the same inputs always produce the same outputs, bit for bit.
"""

from .buckets import Bucket, BucketSchedule, TraceEntry, forward_decode, partition
from .engines import (IterationRecord, QueryResult, solve_belief, solve_map,
                      solve_meu, solve_mpe, solve_mpe_conditioned)
from .errors import (CycleError, EvidenceError, ModelError, NormalizationError,
                     OrderingConstraintError, ParseError, TooLargeError,
                     UnsatisfiableError, ZeroMassError)
from .factor import DiscreteFactor, add, multiply
from .graph import (GraphView, Ordering, WidthReport, augmented_graph,
                    conditional_induced_width, constrained_order,
                    cutset_heuristic, induced_width, interaction_graph,
                    moral_graph, order_heuristic)
from .model import (BeliefNetwork, CnfTheory, Evidence, InfluenceDiagram,
                    parse_cnf, parse_cnf_evidence, parse_evidence,
                    parse_network, serialize_cnf, serialize_evidence,
                    serialize_network)
from .resolution import (DirectionalExtension, directional_resolution,
                         generate_model)

__version__ = "0.1.0"

__all__ = [
    "BeliefNetwork",
    "Bucket",
    "BucketSchedule",
    "CnfTheory",
    "CycleError",
    "DirectionalExtension",
    "DiscreteFactor",
    "Evidence",
    "EvidenceError",
    "GraphView",
    "InfluenceDiagram",
    "IterationRecord",
    "ModelError",
    "NormalizationError",
    "Ordering",
    "OrderingConstraintError",
    "ParseError",
    "QueryResult",
    "TooLargeError",
    "TraceEntry",
    "UnsatisfiableError",
    "WidthReport",
    "ZeroMassError",
    "add",
    "augmented_graph",
    "conditional_induced_width",
    "constrained_order",
    "cutset_heuristic",
    "directional_resolution",
    "forward_decode",
    "generate_model",
    "induced_width",
    "interaction_graph",
    "moral_graph",
    "multiply",
    "order_heuristic",
    "parse_cnf",
    "parse_cnf_evidence",
    "parse_evidence",
    "parse_network",
    "partition",
    "serialize_cnf",
    "serialize_evidence",
    "serialize_network",
    "solve_belief",
    "solve_map",
    "solve_meu",
    "solve_mpe",
    "solve_mpe_conditioned",
    "__version__",
]
