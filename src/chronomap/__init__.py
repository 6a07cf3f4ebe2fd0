"""Chronocyclic phase-space toolkit.

Simulates and analyzes time-frequency interference structure of shaped
ultrafast pulses: SHG FROG spectrograms, Wigner distributions, shifted-copy
overlap maps, zero-line spacing and cell-area measurements, and the
correspondence between spectrogram and Wigner patterns.
"""

from .errors import (
    CalibrationError,
    ChronoError,
    ComputeError,
    ConfigError,
    DataError,
    DomainError,
    FormatError,
    InsufficientStructureError,
    ParseError,
    ShapingError,
    SynthesisError,
)
from .fieldcore import (
    CompassSpec,
    ComplexField,
    PulseSpec,
    SampleGrid,
    ShaperMask,
    apply_shaper,
    chirped_gaussian,
    compass_state,
    energy,
    field_from_spectrum,
    gaussian_pulse,
    make_grid,
    spectrum,
    upsample2,
)
from .transforms import (
    OverlapMap,
    Spectrogram,
    TimeFrequencyMap,
    WignerMap,
    correspondence_maps,
    correspondence_residual,
    overlap_map,
    quadrature_oracle_frog,
    quadrature_oracle_wigner,
    shg_frog,
    wigner,
)
from .analysis import (
    CellAreaReport,
    CrossSection,
    SweepPoint,
    Window,
    ZeroSet,
    cell_areas,
    compare_maps,
    cross_section,
    find_zeros,
    interior_spacings,
    sweep_separation,
    wigner_cell_areas,
)
from .dataio import (
    Calibration,
    ExperimentalTrace,
    SPEED_OF_LIGHT_M_PER_S,
    SPEED_OF_LIGHT_NM_PER_PS,
    calibrate_to_spectrogram,
    export_plot_data,
    load_field,
    load_map,
    load_trace,
    report_to_json,
    save_field,
    save_map,
    save_report,
    trace_from_spectrogram,
    wavelength_to_angular_frequency,
)

__version__ = "0.1.0"
