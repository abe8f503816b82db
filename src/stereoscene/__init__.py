"""stereoscene: physically consistent binaural scene synthesis, azimuth
guidance matrices, and TDOA-based stereo evaluation."""

__version__ = "0.1.0"
