"""Multistatic OFDM passive-radar simulation and signal processing.

The pipeline follows the classic passive-radar receiver chain on OFDM
communication waveforms: known-reference inverse filtering to the channel
transfer function, a fast-time inverse DFT to the channel impulse response,
a slow-time DFT filter bank to the delay-Doppler spreading function, then
clutter suppression, CFAR detection, and multistatic ellipse localization.
"""

__version__ = "0.1.0"

from .channel import SymbolFrame, apply_channel, channel_response
from .detect import CfarConfig, Detection, cfar_detect, suppress_clutter
from .dsp import (
    ChannelEstimate,
    ImpulseResponse,
    ScatteringMap,
    SpreadingFunction,
    delay_transform,
    doppler_transform,
    estimate_channel,
    max_integration_time,
    scattering_map,
)
from .errors import (
    AmbiguousFix,
    CoincidentNodes,
    DelayExceedsCp,
    DimensionMismatch,
    DopplerExceedsNarrowband,
    EmptyReference,
    MapTooSmall,
    NegativeExcess,
    NoConvergence,
    NotchTooWide,
    OfdmPclError,
    OutOfBounds,
    OverlappingAllocation,
    ScenarioError,
    UnknownNode,
    UnknownUser,
    UnreadableMap,
)
from .geometry import (
    SPEED_OF_LIGHT,
    BistaticPair,
    Node,
    Path,
    Scene,
    bistatic_path,
    enumerate_paths,
    los_path,
)
from .grid import (
    PRB_CARRIERS,
    PRB_SYMBOLS,
    Numerology,
    ResourceGrid,
    build_grid,
    full_allocation,
    random_allocation,
    user_subgrid,
)
from .locate import (
    BistaticMeasurement,
    PositionEstimate,
    fuse_position,
    measurement_from_detection,
)
from .mapfile import export_heatmap, read_map, render_heatmap, write_map
from .scenario import Scenario, bundled_scenario_path, detect_map, load_scenario, run_scenario
