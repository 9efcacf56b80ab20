"""deflog: a toolkit for propositional defeasible logic.

Parse defeasible theories, compute their definite and defeasible
conclusions, apply the conclusion-preserving transformations (normal form,
defeater elimination, superiority elimination), classify outcomes and check
conclusion equivalence.
"""

from importlib import import_module

# Each public name and the module that defines it.  Names are imported on
# first use (PEP 562), so a process loads only the modules it calls into.
_EXPORTS = {
    name: module
    for module, names in {
        "analysis": ("Outcome PairStatus PairVerdict classify classify_pair dump_failure "
                     "equivalent gen_theory pair_table"),
        "core": ("Atom DeflogError GroundingError Literal NormalFormReport PreconditionError "
                 "Rule RuleKind Sigma Tag TaggedLiteral Theory TheoryError WellFormedReport "
                 "check_normal check_well_formed ground theory_union"),
        "engine": "ConclusionSet Derivation DerivationLine Mode conclusions prove replay",
        "parser": "ParseError parse print_theory",
        "transform": "TransformError TransformReport elim_dft elim_sup normal pipeline",
    }.items()
    for name in names.split()
}
_MODULES = frozenset(_EXPORTS.values())


def __getattr__(name: str) -> object:
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)
