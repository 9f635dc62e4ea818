"""Reference values the benchmark checks its outputs against.

Copied from the acceptance gate (``tests/test_acceptance.py``) so that the
benchmark never imports a test module; the tolerances are stated next to the
tables they apply to.
"""

# criterion 6: linear preset, c = 8, default RunConfig; (Linf, L1, L2).
# Each norm must lie within LINEAR_TOL of its entry.
LINEAR_C8 = {
    ("TDCNCS", 20): (7.9125e-01, 5.1211e-01, 5.4678e-01),
    ("TDCNCS", 40): (1.0796e-03, 6.9871e-04, 7.6486e-04),
    ("TDCCS", 20): (8.9768e-03, 5.8099e-03, 6.2784e-03),
    ("TDCCS", 40): (1.1749e-04, 7.6040e-05, 8.3230e-05),
}
LINEAR_TOL = 0.15

# criterion 7: soliton preset, default RunConfig; Linf within a factor of 2.
SOLITON_LINF = {
    ("TDCNCS", 120): 1.3256e-06,
    ("TDCCS", 120): 1.3222e-07,
}
SOLITON_FACTOR = 2.0

# criterion 9: mass drift bound of the filtered soliton runs.
MASS_DRIFT_MAX = 1e-8

# criterion 2: |leading truncation constant|, to 5 significant digits.
TRUNCATION = {
    "TDCNCS-T8": 3.12192e-5,
    "TDCCCS-T8": 6.57252e-5,
    "TDCCS-T8": 2.1882e-6,
}
TRUNCATION_RTOL = 5e-6

# criterion 3: resolving efficiency e per family for the variants
# EFFICIENCY_VARIANTS, at eps_t = 1e-3 and 1e-4, each within EFFICIENCY_TOL.
# None marks the cell checked as e >= EFFICIENCY_FLOOR instead.
EFFICIENCY_VARIANTS = ("T4", "T6", "T8", "P10")
EFFICIENCY = {
    1e-3: {
        "TDCNCS": (0.2205, 0.5523, 0.5018, 0.5205),
        "TDCCCS": (0.2278, 0.3705, 0.4672, 0.5874),
        "TDCCCS-CI": (0.2277, 0.3699, 0.4600, 0.5354),
        "TDCCS-CI": (0.2297, 0.6483, 0.5631, 0.5565),
        "TDCCS-TE": (0.2297, 0.4411, 0.7828, 0.9542),
        "TDCCS-LS": (0.8898, 0.9998, 0.9998, 0.9998),
        "TDCCS-CI-1": (0.2297, 0.6483, 0.5639, 0.5563),
        "TDCCS-TE-1": (0.2297, 0.4411, 0.7679, 0.9321),
        "TDCCS-LS-1": (0.8898, 0.9998, 0.9998, 0.9998),
        "TDCCS-TE-2": (0.2297, 0.3959, 0.5131, 0.6506),
        "TDCCS-TE-3": (0.2297, 0.3959, 0.5152, 0.6110),
    },
    1e-4: {
        "TDCNCS": (0.1248, 0.4850, 0.3855, 0.4114),
        "TDCCCS": (0.1290, 0.2545, 0.3518, 0.4753),
        "TDCCCS-CI": (0.1290, 0.2544, 0.3490, 0.4336),
        "TDCCS-CI": (0.1294, 0.6347, 0.4672, 0.4521),
        "TDCCS-TE": (0.1294, 0.2497, 0.5376, 0.7284),
        "TDCCS-LS": (0.8888, 0.9493, 0.9998, None),
        "TDCCS-CI-1": (0.1294, 0.6347, 0.4691, 0.4520),
        "TDCCS-TE-1": (0.1294, 0.2497, 0.5280, 0.7093),
        "TDCCS-LS-1": (0.8888, 0.9493, 0.9998, 0.9998),
        "TDCCS-TE-2": (0.1294, 0.2718, 0.3917, 0.5046),
        "TDCCS-TE-3": (0.1294, 0.2718, 0.3928, 0.4823),
    },
}
EFFICIENCY_TOL = 0.002
EFFICIENCY_FLOOR = 0.9690

# criterion 4: max |eigenvalue| of h^3 A^-1 B. The N = 100 value must lie
# within STABILITY_ATOL of the constant, the N = 1024 value within
# STABILITY_RTOL of it; 1.732 / |lambda| at N = 100 rounds to STABILITY_CFL.
STABILITY = {"TDCNCS-T8": 15.157, "TDCCS-T8": 147.168}
STABILITY_ATOL = 0.01
STABILITY_RTOL = 0.01
STABILITY_CFL = {"TDCNCS-T8": (0.11, 2), "TDCCS-T8": (0.012, 3)}
