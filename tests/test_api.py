"""The package's public surface: exactly these names, each importable."""

import sshat

PUBLIC_NAMES = [
    "BracketingError",
    "DegenerateRateError",
    "EllExpansion",
    "ExpPolySeries",
    "ExpPolyTerm",
    "InitialState",
    "ModelParams",
    "N_MAX",
    "NumericalFailure",
    "OracleResult",
    "ShatExpansion",
    "abar_closed_s0_equals_muhat",
    "build_expansion",
    "compute_oracle",
    "compute_oracles",
    "default_n_steps",
    "integrate_ell",
    "load_config",
    "rhs1_printed",
    "solve_shat_numeric",
    "solve_shat_series",
    "tau_lbar_terms",
]


def test_public_names_are_pinned():
    assert sorted(sshat.__all__) == PUBLIC_NAMES


def test_every_public_name_imports():
    namespace = {}
    exec(f"from sshat import {', '.join(PUBLIC_NAMES)}", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(sshat, name)
