"""Exact-arithmetic toolkit for shadow minimization of k-set families.

Every public name is read from the submodule that owns it, and that
submodule is imported the first time the name is used (PEP 562), so a
process loads only the engines it calls.
"""

import importlib

# public name -> the submodule that defines it; __all__ keeps this order
_OWNER = {
    "EMPTY": "exact",
    "AbcReport": "inequalities",
    "BinomialSum": "identities",
    "BudgetError": "exact",
    "CharacterizationReport": "extremal",
    "ExactOverflowError": "exact",
    "ForbiddenPairSpec": "constructions",
    "KFamily": "families",
    "NotReducibleError": "identities",
    "Pavement": "identities",
    "PerturbationResult": "constructions",
    "ReductionOutcome": "identities",
    "Rubble": "identities",
    "Seq": "exact",
    "Wall": "identities",
    "are_isomorphic": "families",
    "binom": "exact",
    "brute_force_min_shadow": "extremal",
    "canonical_form": "families",
    "certify_by_witness": "extremal",
    "characterize": "extremal",
    "check_abc": "inequalities",
    "check_abck": "inequalities",
    "colex_rank": "families",
    "colex_unrank": "families",
    "compact_support": "families",
    "conjecture_scan": "inequalities",
    "decompose": "exact",
    "degree": "families",
    "delete_star": "families",
    "dominates": "identities",
    "enumerate_extremal": "extremal",
    "equality_splits": "inequalities",
    "example_32_family": "constructions",
    "example_33_family": "constructions",
    "forbidden_pair_cardinalities": "constructions",
    "forbidden_pair_family": "constructions",
    "initial_segment": "families",
    "is_extremal": "extremal",
    "is_invariantly_zero": "identities",
    "iterated_shadow": "families",
    "join": "families",
    "kk_bound": "exact",
    "lex_cmp": "exact",
    "link": "families",
    "min_degree_bound_check": "extremal",
    "min_degree_element": "families",
    "perturbed_colex": "constructions",
    "recursive_reduce": "identities",
    "regular_family": "constructions",
    "seq_minus": "exact",
    "seq_shift": "exact",
    "seq_value": "exact",
    "shadow": "families",
    "shadow_chain_check": "extremal",
    "uniqueness_predicate": "extremal",
    "upper_shadow": "families",
}

__all__ = list(_OWNER)


def __getattr__(name: str):
    # an unknown name must raise AttributeError: ``from shadowlab import
    # extremal`` relies on it to go on and import the submodule
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
