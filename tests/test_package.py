import importlib

import gweave

# The package's public names, one module each.
_EXPORTS = {
    "linalg": ("DEFAULT_TOL", "Tolerance", "hermitian_extremes", "op_norm", "pinv", "rank",
               "singular_extremes"),
    "gframe": ("CoefficientVector", "DegenerateGFrameError", "FrameBounds", "GFrame",
               "analysis_matrix", "apply_operator", "apply_synthesis", "canonical_dual",
               "frame_bounds", "frame_operator", "induced_frame", "is_g_orthonormal",
               "synthesis_matrix"),
    "weaving": ("BudgetExceededError", "DEFAULT_BUDGET", "GFrameFamily", "Partition",
                "RemovalReport", "WeavingReport", "assemble_weaving", "bessel_sum_bound",
                "certify_woven", "frame_op_norm_check", "removal_bound", "report_dict",
                "restrict_family", "scaled_family", "span_criterion"),
    "riesz": ("EquivalenceConstants", "PermutationWeaveReport", "RieszBounds",
              "WeavingRieszReport", "equivalence_constants", "permutation_weave",
              "riesz_bounds", "weaving_riesz_check"),
    "perturb": ("KCertificate", "OperatorPerturbationReport", "PerturbationCertificate",
                "ScaledDualReport", "chained_certificate", "minimal_k",
                "operator_perturbation", "perturbation_certificate", "scaled_dual_weave"),
    "generate": ("GenSpec", "KINDS", "generate", "random_partition"),
}


def test_public_names():
    names = {name for names in _EXPORTS.values() for name in names} | {"__version__"}
    assert len(names) == 57
    assert len(gweave.__all__) == 57
    assert set(gweave.__all__) == names


def test_each_name_is_its_modules_object():
    for module, names in _EXPORTS.items():
        source = importlib.import_module(f"gweave.{module}")
        for name in names:
            assert getattr(gweave, name) is getattr(source, name), name


def test_generate_is_the_function():
    assert gweave.generate is importlib.import_module("gweave.generate").generate
    assert callable(gweave.generate) and not isinstance(gweave.generate, type(gweave))


def test_star_import_gives_the_public_names():
    scope = {}
    exec("from gweave import *", scope)
    assert set(scope) - {"__builtins__"} == set(gweave.__all__)
