"""Interpretability logics over ordinary and generalized Veltman semantics.

The package covers the base logic IL and the extensions ILM, ILM0, ILP,
ILP0, ILR, ILW and ILWstar: parsing and normalization of the modal language
with the binary connective |>, model checking over both semantics, frame
condition checks with their schema-validity counterparts, bisimulation and
filtration of generalized models, Hilbert-style proof checking, and bounded
countermodel search.  The ``veltman`` command line fronts the same
operations.
"""

from .bisim import (BisimViolation, Partition, bisimulation_violation,
                    largest_autobisimulation)
from .decide import (FRAME_CONDITIONS, CheckedTheorem, NoCountermodelUpTo,
                     Refuted, SearchBudget, SearchTimeout, Verdict,
                     countermodel_search, decide, enumerate_frames,
                     verdict_to_json)
from .filtration import FiltrationResult, box_like, filtrate, verify_filtration
from .formula import (MAX_DEPTH, Algebra, And, Bot, BOT, Box, Dag, Dia, Formula,
                      Impl, Neg, Or, ParseError, Rhd, Top, TOP, Var,
                      adequate_set, d_closure, evaluate, fold, is_adequate,
                      normalize, parse, pretty, semantics, single_negation,
                      subformulas, variables)
from .hilbert import (LOGICS, SCHEMATA, Axiom, Logic, MP, Nec, ProofCheck,
                      ProofFormatError, ProofLine, ProofObject, Taut,
                      check_proof, format_proof, get_logic,
                      is_classical_tautology, instantiate, match_schema,
                      parse_proof, schema_metavars)
from .model import (FrameError, GenFrame, GenModel, OrdFrame, OrdModel,
                    Violation, close_s, gen_of_ordinary, model_from_json,
                    validate)
from .properties import (PROPERTY_IDS, SCHEMA_OF_PROPERTY, BenchReport,
                         Falsification, FrameSizeError, PropertyReport,
                         TruthTables, check_property, choice_sets,
                         correspondence_bench, frame_validates,
                         minimal_hitting_sets, s_preimage, schema_frame_valid)

__all__ = [name for name in dir() if not name.startswith("_")]
