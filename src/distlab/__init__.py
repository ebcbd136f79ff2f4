"""Exact verification of distribution lattices, their graded complexes,
spectral sequences, and Stickelberger index formulas.

The public names below, and the submodules themselves, resolve on first
access (PEP 562), each by importing the submodule that defines it.  So
``import distlab`` loads no submodule, and a run loads only the modules it
uses: no suite of ``distlab verify`` loads numpy.
"""

__version__ = "0.1.0"

# Each submodule and the public names it gives the package.
_EXPORTS = {
    "abgroup": (
        "BoundedComplex",
        "FgAbGroup",
        "JComplex",
        "ZQuotient",
        "abstract_index_check",
        "elementary_power",
        "euler_regulator_check",
        "i_invariant",
        "random_complex",
        "random_regulator_pair",
        "regulator",
        "subquotient_group",
        "tate_group",
    ),
    "arith": (
        "crt",
        "divisors",
        "euler_phi",
        "factorize",
        "inverse_mod",
        "mobius",
        "multiplicative_order",
        "p_part",
        "prime_to_p_part",
        "primes_of",
        "primitive_root",
        "squarefree_divisors",
    ),
    "cyclotomic": (
        "CycNum",
        "DirichletChar",
        "all_characters",
        "bernoulli1",
        "character_product_full",
        "character_product_minus",
        "corrector_q",
        "corrector_w",
        "cyclotomic_poly",
        "h_minus",
        "l_value_crosscheck",
        "odd_characters",
        "smoothing_det",
        "smoothing_det_minus",
    ),
    "distribution": (
        "cohomology_check",
        "distribution_lattice",
        "exp_kernel_check",
        "negation_matrix",
        "predistribution_lattice",
        "smoothing_check",
        "tate_distribution",
        "tate_predistribution",
        "universal_distribution",
        "universal_predistribution",
    ),
    "exact_linalg": (
        "Lattice",
        "det_exact",
        "hnf",
        "invariant_factors",
        "kernel_basis",
        "lattice_index",
        "lattice_intersect",
        "lattice_sum",
        "rank_exact",
        "solve_exact",
        "to_int",
    ),
    "lcomplex": (
        "AVERAGE",
        "DIFFERENCE",
        "KINDS",
        "acyclicity_check",
        "build_complex",
        "build_jcomplex",
        "det_check",
        "homotopy_check",
        "index_formula_check",
        "intertwine_check",
        "level_inclusion_check",
        "symbol_basis",
    ),
    "spectral": (
        "FULL",
        "HALF",
        "DoubleComplex",
        "abutment_check",
        "build_double",
        "degeneration_check",
        "e1_page_check",
        "e2_page_check",
        "index_values_check",
        "page_homology_check",
        "scaled_rows_check",
        "splitting_check",
    ),
    "stickelberger": (
        "GroupRingElem",
        "StickelbergerData",
        "alpha_compat_check",
        "alpha_ideal_index_check",
        "alpha_image_index_check",
        "alpha_lattice",
        "antisymmetrization_index_check",
        "definition_report",
        "minus_ideal_index_check",
        "smoothing_minus_image_check",
        "stickelberger_ideal",
        "theta_element",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
