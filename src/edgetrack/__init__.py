"""Edge-based markerless 3D pose tracking with pluggable real-number backends."""

from .geometry import (
    BehindCameraError,
    CameraIntrinsics,
    ModelFormatError,
    PoseSE3,
    WireframeModel,
    load_model,
    look_at_pose,
)
from .imaging import ColorImage, GrayImage, ImageFormatError, load_image, save_image, to_gray
from .pose_estimation import (
    DegenerateGeometryError,
    FrameSizeError,
    FrameStats,
    TrackerConfig,
    solve_lm,
    track_frame,
)
from .rasterizer import (
    CapacityError,
    render_depth_buffer,
    render_id_buffer,
)
from .realmath import (
    BACKEND_NAMES,
    MathOverflowError,
    Q40_23,
    Q47_16,
    get_backend,
)
from .tracking import (
    InsufficientMeasurementsError,
    MeasurementSet,
    collect_measurements,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND_NAMES",
    "BehindCameraError",
    "CameraIntrinsics",
    "CapacityError",
    "ColorImage",
    "DegenerateGeometryError",
    "FrameSizeError",
    "FrameStats",
    "GrayImage",
    "ImageFormatError",
    "InsufficientMeasurementsError",
    "MathOverflowError",
    "MeasurementSet",
    "ModelFormatError",
    "PoseSE3",
    "Q40_23",
    "Q47_16",
    "TrackerConfig",
    "WireframeModel",
    "collect_measurements",
    "get_backend",
    "load_image",
    "load_model",
    "look_at_pose",
    "render_depth_buffer",
    "render_id_buffer",
    "save_image",
    "solve_lm",
    "to_gray",
    "track_frame",
]
