"""Approximant term lists of the appendix tables, and the source's constants.

Series terms: (rate_quarters, coeff) stands for
coeff * sqrt(y) * exp(-rate_quarters*pi*y/4).  The appendix's weighted
Wronskian tables are derived exactly from these lists on first use
(``verifier._tables``); tools/derive_poly_tables.py checks that derivation
against the printed tables.

STATED_VALUES are the source's printed constants (the thresholds suite
and command) and SUITES the names run_suite accepts; this module
imports nothing, so the CLI reads them without loading numpy.
"""

XA_TERMS = ((0, 1), (4, 4), (8, 4), (16, 4))
YA_TERMS = ((0, 1), (1, 2), (4, 4), (5, -4), (8, 4), (9, 2), (13, -4), (16, 4))
AA_MONOMIALS = ((0, 1), (2, 2), (8, 4), (10, 4), (16, 4), (18, 2))
AA_MONOMIALS_5TERM = ((0, 1), (2, 2), (8, 4), (10, 4), (18, 2))  # printed F_AB: no 4 e^{-4 pi y}
BA_TERMS = ((2, 2), (4, -4), (10, 4), (18, 2))

STATED_VALUES = {
    "rho1": 0.04016680351,
    "rho2": 1.190861337,
    "sigma2b": 24.89618074,
    "alpha0": 0.1726645,
    "theta_alpha0": 1.186248384,
    "alpha0_rough_bound": 0.2419435012,
    "alpha1": 0.3732155067,
    "alpha2": 0.9256496973,
}
SUITES = ("identities", "thresholds", "appendix", "oracle", "all")
