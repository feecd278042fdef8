"""etk: offline analysis toolkit for multi-sensor eSports session logs.

Ingests gaze, keyboard/mouse, heart-rate, and game-event captures;
extracts alive segments; maps gaze onto screen zones; computes
rolling-window zone distributions, PCA projections, input-behavior
features, and KDE curves; and generates seeded synthetic sessions for
end-to-end testing.
"""
from .errors import (
    AssemblyError,
    DegenerateData,
    DimensionMismatch,
    EmptyInput,
    EmptySupport,
    EtkError,
    InsufficientData,
    InvalidProfile,
    ParseError,
    TooManyWindows,
    UnknownPlayer,
)
from .ingest import (
    assemble_session,
    parse_demo_events,
    parse_gaze_log,
    parse_hrm_log,
    parse_input_log,
    read_session_dir,
    write_session_dir,
)
from .input_features import (
    ClickStats,
    FeatureRow,
    MouseKinematics,
    click_stats,
    click_zone_distribution,
    fraction_held,
    key_hold_intervals,
    mouse_kinematics,
)
from .model import (
    BeatSeries,
    Cohort,
    EventKind,
    GameEvent,
    GazeSeries,
    InputSeries,
    Interval,
    KEY_ALPHABET,
    MatchTimeline,
    PlayerMeta,
    Round,
    Session,
    Violation,
    key_mask,
    key_names,
    validate_session,
)
from .numerics import (
    KdeModel,
    PcaModel,
    dominant_coordinate,
    fit_kde,
    fit_pca,
    jacobi_eigh,
    kde_curve,
    kde_evaluate,
    project,
    silverman_bandwidth,
)
from .preprocess import (
    MissingReport,
    beats_to_bpm,
    extract_alive_segments,
    interpolate_gaps,
    mean_bpm,
    missing_stats,
    slice_by_intervals,
)
from .rng import Rng
from .synth import (
    CohortProfile,
    Scenario,
    default_profiles,
    generate_session,
    load_profiles,
)
from .zones import (
    AveragedDistribution,
    Heatmap,
    WindowSeries,
    ZoneModel,
    ZoneSequence,
    assign_zone,
    assign_zones,
    average_distribution,
    default_zone_model,
    heatmap_grid,
    window_distributions,
    zone_shares,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
