"""The package's public surface: what ``paulidyn`` exports, and why the functions that no
``paulidyn`` command reaches are still in it."""

import importlib
import inspect
import re
from pathlib import Path

import paulidyn

PUBLIC = (
    "ChoiMatrix", "CpCheck", "DimensionError", "DivisibilityReport", "EvaluationError",
    "GenPauliChannel", "GridResolutionError", "HermitianCheckResult", "IntermediateMap",
    "InternalConsistencyError", "InvalidInputError", "KrausMap", "MubFamily",
    "NonHermitianError", "PRESET_NAMES", "ParseError", "PaulidynError", "QuadratureError",
    "RateExpr", "RateSet", "Trajectory", "UnsupportedDimensionError", "Verdict", "WeylBasis",
    "Witness", "analyze", "apply", "build_trajectory", "channel_from_eigenvalues",
    "channel_from_probabilities", "check_blp", "check_cp_divisible", "check_cptp_trajectory",
    "check_frobenius_monotone", "check_p_necessary", "check_p_sufficient",
    "check_weyl_sufficient", "choi_matrix", "commuting_classes", "decoherence_channel",
    "eigenvalues_from_probabilities", "evaluate", "evolve_operator",
    "find_p_divisibility_witness", "hermitian_check", "intermediate_map", "is_cp_fujiwara",
    "is_prime", "min_eigenvalue_hermitian", "mub_family", "parse", "preset_rates",
    "probabilities_from_eigenvalues", "rate_set", "trace_norm", "unitary_mixing_map",
    "weyl_basis", "weyl_rates_from_trajectory",
)

#: functions no ``paulidyn`` command calls, kept because a test or the benchmark uses them
#: as the reference for another function, as "<module>.<name>"
REFERENCES = (
    "mub.unitary_powers", "mub.decoherence_channel", "mub.unitary_mixing_map",
    "channel.kraus_operators", "linalg.KrausMap", "channel.ChoiMatrix.is_positive",
    "mub.weyl_basis", "mub.commuting_classes", "dynamics.check_weyl_sufficient",
    "dynamics.weyl_rates_from_trajectory", "ratefn.evaluate", "dynamics.evolve_operator",
    "mub.unbiasedness_table", "mub.dephase_all", "mub.MubFamily.basis_vectors",
    "mub.MubFamily.projector", "mub.MubFamily.unitary", "ratefn.integrate",
    "dynamics.trajectory_to_csv",
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_are_the_pinned_names():
    exported = {name for name, value in vars(paulidyn).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(exported) == sorted(PUBLIC)


def test_every_kept_reference_exists_and_the_readme_says_why():
    paragraph = re.search(r"\*\*Kept as references\.\*\*(.*?)\n\n", README.read_text(),
                          re.DOTALL)
    assert paragraph is not None
    named = set(re.findall(r"`([\w.]+)`", paragraph.group(1)))
    for reference in REFERENCES:
        module, *path = reference.split(".")
        obj = importlib.import_module(f"paulidyn.{module}")
        for attr in path:
            obj = getattr(obj, attr)
        assert callable(obj), reference
        assert ".".join(path) in named, reference
