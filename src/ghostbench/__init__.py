"""ghostbench: desk-scale pseudo-thermal ghost imaging simulation bench."""

from .errors import ConfigError, GhostbenchError, SolverError
from .optics import (ObjectMask, OpticalConfig, SlitGeometry, grid_coords, load_mask_pgm,
                     make_double_slit)
from .speckle import aperture_sample_count, synthesize_frame
from .forward import bucket_measure, campaign_blocks
from .recon_gi import gi_from_blocks
from .recon_gics import (GicsParams, SensingSystem, SolveReport, build_sensing,
                         gics_reconstruct, gpsr_solve, kkt_residual, run_campaign)
from .metrics import minmax_normalize, mse, psnr, recon_snr, slit_dip
from .harness import Scenario, load_scenario, parse_scenario_text, run_scenario

__version__ = "0.1.0"
