"""classicdl: a structural subsumption engine for the CLASSIC description
logic, with an executable model theory.

Descriptions parse into immutable ASTs, translate into description graphs,
and canonicalize by a fixpoint of merging and bookkeeping steps; the
subsumption test is a purely structural walk over the canonical graph.
Individuals follow the modified semantics: an individual denotes a
non-empty set of domain elements, distinct individuals never overlap, and
number restrictions count fillers modulo that congruence.  The ``worlds``
and ``countermodel`` modules make the semantics executable: extensions
evaluate in finite worlds, and every negative subsumption answer comes
with a constructible separating world.
"""

from .countermodel import CounterModelError, construct_graphical_world
from .descriptions import (
    AllAttr,
    AllRole,
    And,
    AtLeast,
    AtMost,
    ClassicThing,
    ConceptName,
    Description,
    FillsAttr,
    FillsRole,
    HostConcept,
    HostThing,
    Individual,
    NamedRef,
    Nothing,
    OneOf,
    Primitive,
    SameAs,
    Test,
    Thing,
    to_text,
)
from .graph import (
    DescriptionGraph,
    GraphNode,
    REdge,
    AEdge,
    merge_graphs,
    merge_nodes,
    translate,
)
from .kb import HostLattice, KbError, KnowledgeBase, Taxonomy, classify, expand
from .normalize import canonical_graph, canonicalize
from .parsing import ParseError, parse_description, parse_kb
from .reduction import (
    CnfFormula,
    DimacsError,
    Literal,
    check_validity_bruteforce,
    demonstrate_incompleteness,
    encode,
    parse_dimacs,
)
from .subsume import equivalent, subsumes, subsumes_graph
from .worlds import (
    Interpretation,
    eval_description,
    eval_graph,
    find_witness,
    sample_interpretation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
