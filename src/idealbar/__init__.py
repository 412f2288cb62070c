"""Verification kernel for crossed modules of finite commutative
algebras, their truncated bar objects, crossed ideals and the
bisimplicial objects of morphisms."""

__version__ = "0.1.0"

from .core import (Algebra, AlgebraHom, BilinearMap, FiniteModule,
                   IdealbarError, ModuleHom, PreconditionError,
                   StructuralError, Submodule, UnsupportedScaleError,
                   direct_sum, image, is_ideal, kernel, semidirect_product,
                   solve, validate_algebra, validate_hom)
from .xmod import (CrossedModule, consequence_checks, inclusion_xmod,
                   phi_cm1_criterion, phi_cm2_criterion, translation_action,
                   validate_algebra_action, validate_crossed_module)
from .bar import (TruncatedBarAlgebra, TruncatedBarModule, build_bar_algebra,
                  definition_checks, eta_k, verify_bar, verify_decomposition,
                  verify_ideal_axiom, verify_level_homomorphisms,
                  verify_simplicial_identities)
from .roundtrip import (extract_crossed_module, perturb_and_filter,
                        roundtrip_check, roundtrip_from_structure,
                        verify_extracted)
from .crossed_ideal import (CrossedIdealMap, SubXMod, XModMorphism,
                            image_crossed_ideal_check, image_sub_xmod,
                            inclusion_cim, sub_crossed_module,
                            validate_crossed_ideal,
                            validate_crossed_ideal_map, validate_morphism)
from .bibar import BiBar, build_bibar, verify_bibar
from .enumeration import (all_valid_xmods, classify_xmods, enumerate_algebras,
                          enumerate_homs, enumerate_ideals, enumerate_xmods,
                          fuzz_cims)
from .policy import Policy
from .report import Report, exit_code
from .workspace import Workspace, WorkspaceError
