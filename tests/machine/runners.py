"""Small-but-real workloads of every app family, shared across suites.

Every kernel family (FFT butterflies, Rijndael carry chains, sort merge
networks, filter rows, all four Table 4 index-distribution datasets,
sparse gather/scatter and banded stencils) at CI-friendly sizes.
"""

from repro.apps import fft, filter2d, igraph, rijndael, sort, spmv, stencil

PRESETS = ("Base", "ISRF1", "ISRF4", "Cache")

RUNNERS = {
    "fft": lambda cfg: fft.run(cfg, n=16),
    "rijndael": lambda cfg: rijndael.run(cfg, blocks_per_lane=2),
    "sort": lambda cfg: sort.run(cfg, n=256),
    "filter": lambda cfg: filter2d.run(cfg, height=16, width=32),
    "ig_sml": lambda cfg: igraph.run(cfg, dataset="IG_SML", nodes=128,
                                     strips_to_run=2),
    "ig_dms": lambda cfg: igraph.run(cfg, dataset="IG_DMS", nodes=128,
                                     strips_to_run=2),
    "ig_dcs": lambda cfg: igraph.run(cfg, dataset="IG_DCS", nodes=128,
                                     strips_to_run=2),
    "ig_scl": lambda cfg: igraph.run(cfg, dataset="IG_SCL", nodes=128,
                                     strips_to_run=2),
    "spmv_csr": lambda cfg: spmv.run(cfg, fmt="csr", rows=64, cols=64,
                                     strips_to_run=2),
    "spmv_csc": lambda cfg: spmv.run(cfg, fmt="csc", rows=64, cols=64,
                                     strips_to_run=2),
    "stencil_star": lambda cfg: stencil.run(cfg, pattern="star"),
    "stencil_box": lambda cfg: stencil.run(cfg, pattern="box"),
}
