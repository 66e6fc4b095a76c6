"""Exact combinatorics for AR quivers of A/D Dynkin diagrams, R-matrix
denominator zero sets of the corresponding affine families, spectral-point
quivers with their 2:1 folds, and tensor-surjection decision rules.

``import arquiver`` loads no submodule: each public name is imported from its
submodule on first access (PEP 562), so a CLI query loads only what it runs."""

import sys
from importlib import import_module
from types import ModuleType

# Public name -> the submodule that defines it, in the order of __all__.
_SUBMODULE = {
    "AffineType": "spectral",
    "ARData": "quiver",
    "ConvexPartialOrder": "quiver",
    "DenominatorZeros": "spectral",
    "DoreyTriple": "dorey",
    "DoreyVerdict": "dorey",
    "DynkinQuiver": "quiver",
    "EmbedResult": "dorey",
    "FiniteType": "rootsys",
    "LabeledQuiver": "sequiver",
    "Root": "rootsys",
    "SchurWeylDatum": "sequiver",
    "SeVertex": "sequiver",
    "SpectralParam": "spectral",
    "adapted_word": "quiver",
    "all_orientations": "quiver",
    "apply_word": "rootsys",
    "ar_quiver": "quiver",
    "cartan_matrix": "rootsys",
    "class_arrow_mult": "sequiver",
    "convex_order_Q": "quiver",
    "coxeter_word": "quiver",
    "denominator": "spectral",
    "denominator_roots_raw": "spectral",
    "distance": "rootsys",
    "dorey": "dorey",
    "dorey_twisted": "dorey",
    "dorey_untwisted": "dorey",
    "dual_index": "spectral",
    "dual_point": "spectral",
    "embed_pair_in_AR": "dorey",
    "format_root": "rootsys",
    "gamma_path_order": "quiver",
    "gamma_root": "quiver",
    "has_sign_quotient": "sequiver",
    "height_function": "quiver",
    "is_adapted": "quiver",
    "is_convex": "rootsys",
    "minimal_pair_triple": "dorey",
    "minimal_pairs": "quiver",
    "multiple_pole_class": "dorey",
    "p_star": "spectral",
    "phi": "quiver",
    "pi": "sequiver",
    "pi_preimages": "sequiver",
    "positive_roots": "rootsys",
    "reflect": "rootsys",
    "right_dual_point": "spectral",
    "root_sequence": "rootsys",
    "schur_weyl_quiver": "sequiver",
    "se0_contains": "sequiver",
    "se0_window": "sequiver",
    "se_window": "sequiver",
    "simple_root": "rootsys",
    "vertex_class": "sequiver",
    "w0_involution": "rootsys",
    "zero_order": "spectral",
}
__all__ = list(_SUBMODULE)


class _Package(ModuleType):
    """The package module.  Importing the submodule ``arquiver.dorey`` binds
    it to the package under its own name; the package keeps the public
    function ``dorey`` there instead, whatever the import order."""

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, ModuleType) and _SUBMODULE.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


def __getattr__(name: str) -> object:
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE})


sys.modules[__name__].__class__ = _Package

__version__ = "0.1.0"
