"""repro.profiling — exact flat profiling over the simulator.

The reproduction's gprof: :func:`profile_image` attributes every
executed instruction to its procedure, identifies the hot set by the
paper's 90%-of-runtime rule, and reports dynamic text size (Table 1)
and the normalized dynamic footprint (Figure 9).
:func:`auto_tcache_size` closes the loop (``--tcache-size auto``):
dominant-block-guided tcache sizing from the profiled hot working
set, measured through the real chunker.
"""

from .autosize import (
    AutoSizeEstimate,
    auto_tcache_size,
    estimate_tcache_size,
    measure_rewritten_bytes,
)
from .profiler import Profile, ProcProfile, profile_image

__all__ = [
    "AutoSizeEstimate", "ProcProfile", "Profile",
    "auto_tcache_size", "estimate_tcache_size",
    "measure_rewritten_bytes", "profile_image",
]
