"""Low-frequency source imaging in acoustic waveguides.

Guided-mode synthesis of point-source data on sensor arrays, regularized
mode-amplitude estimation, migration imaging with peak localization, and
effective-rank analysis of vertical, horizontal and planar arrays.

The exports below resolve lazily (PEP 562): `wgimage.X` imports the
submodule that defines X on first use. So `import wgimage` loads no
numpy, and the command-line entry point `wgimage.cli`, which Python
reaches through this package, can still set its BLAS thread defaults
before numpy first loads and starts its thread pool.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("ConfigError", "EmptySpectrum", "GeometryMismatch", "NoGuidedModes",
               "SingularUnregularized", "TooFewReceivers"),
    "estimate": ("CouplingMatrix", "EstimationReport", "HardThreshold", "RegPolicy",
                 "SensingMatrix", "Tikhonov", "amplitudes", "coupling_matrix",
                 "coupling_spectrum", "estimate_amplitudes", "filtered_basis",
                 "mse_decomposition", "optimal_epsilon", "project_reduced", "sensing_matrix"),
    "image": ("ImageMap", "SearchGrid", "default_grid", "locate_peak",
              "localization_success", "migrate"),
    "modes": ("HomogeneousDD", "HomogeneousDN", "ModeSet", "Parabolic", "solve_modes"),
    "rank": ("MomentFamily", "dense_rank_prediction", "effective_rank", "moment_family",
             "span_rank_collapse", "taylor_rank_prediction"),
    "synth": ("Dense", "Discrete", "FieldSamples", "PointSource", "array_samples",
              "dense_line", "horizontal_line", "lhs_design", "sample_field",
              "source_amplitudes", "vertical_line"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
