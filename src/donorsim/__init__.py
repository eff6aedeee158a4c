"""Simulator for an electron-nuclear donor spin pair near zero magnetic field.

Subpackage map:

- ``spincore``: Hamiltonian, closed-form levels, transition elements,
  field sensitivity, field estimation.
- ``pump``: optical pumping rate equations, steady states, the
  closed-form re-pump transient, photoconductive spectra.
- ``program`` / ``seqdsl``: pulse-sequence data model and its text format.
- ``noise``: member RNG streams and environments, static and
  Ornstein-Uhlenbeck detuning noise.
- ``pulse``: two-level pulse engine, ensemble experiments, the honest
  4-level integrator, RF spectra.
- ``fitkit``: damped least-squares fits (stretched exponential, peaks).
- ``config`` / ``csvio`` / ``cli``: the settings table (the spin, noise,
  ensemble and pump parameter types) with config files, CSV I/O, entry point.

Start-up is lazy: ``import donorsim`` loads no submodule.  Each name in
``__all__`` is imported from its submodule on first access (PEP 562), so a
caller, and each ``donorsim`` subcommand, loads only the modules it uses;
``from donorsim import *`` still binds every name.
"""

import importlib

__version__ = "0.1.0"

#: Submodule -> the public names it exports here; ``__all__`` is derived from it.
_EXPORTS = {
    "config": ("EnsembleSpec", "NoiseModel", "PumpConfig", "SpinSystem", "load_config"),
    "fitkit": ("FitResult", "fit_peaks", "fit_stretched_exp"),
    "program": ("Delay", "PhaseCycle", "Pulse", "PulseProgram"),
    "pulse": ("TwoLevelParams", "hahn_experiment", "rabi_experiment", "ramsey_experiment",
              "rf_spectrum", "run_sequence", "simulate_4level"),
    "pump": ("PopulationState", "optical_spectrum", "steady_state"),
    "seqdsl": ("compile_sequence", "parse_sequence", "pretty_print"),
    "spincore": ("PHOSPHORUS", "FieldVector", "breit_rabi_levels", "clock_sensitivity",
                 "eigensystems", "estimate_field_from_splitting", "hamiltonians",
                 "transition_frequency", "transition_table"),
}
#: Exported names that their submodule defines under another name.
_RENAMED = {"compile_sequence": "compile", "parse_sequence": "parse"}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:  # also how ``from donorsim import pulse`` finds the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), _RENAMED.get(name, name))
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
