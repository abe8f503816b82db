"""stereoscene: physically consistent binaural scene synthesis, azimuth
guidance matrices, and TDOA-based stereo evaluation."""

from .audio_io import AudioBuffer, read_wav, write_wav
from .scene import (
    AttributeRecord,
    MicArray,
    SceneSpec,
    SourceAttributes,
    SourceSpec,
    resolve_attributes,
    sample_mic_array,
    sample_room,
    sample_scene,
    sample_source_placement,
    build_trajectory,
)
from .rng import SeededRng, entry_seed
from .acoustics import (
    RirKernel,
    compute_rir,
    eyring_rt60,
    measure_rt60,
    render_static,
    rt60_to_absorption,
    stereo_rir_for,
)
from .render import (
    ActivitySegment,
    MixResult,
    crop_pad,
    detect_activity,
    mix_scene,
    render_moving,
)
from .guidance import (
    AzimuthStateMatrix,
    BinTrajectory,
    angle_to_bin,
    coarse_matrix,
    fine_matrix,
    interp_center,
    matrices_for_scene,
)
from .metrics import (
    EmbeddingStats,
    MetricReport,
    TdoaSeries,
    default_embed,
    frechet_distance,
    gcc_ma,
    gcc_mae,
    gcc_phat,
    tdoa_series,
)
from .captions import CaptionParseError, generate_caption, parse_caption
from .pipeline import (
    DatasetIndex,
    ManifestEntry,
    evaluate,
    read_manifest,
    synthesize,
    validate,
)

__version__ = "0.1.0"
