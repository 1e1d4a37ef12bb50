"""ghostbench: desk-scale pseudo-thermal ghost imaging simulation bench."""

from .errors import ConfigError, GhostbenchError, SolverError
from .optics import (ObjectMask, OpticalConfig, SlitGeometry, grid_coords, load_mask_pgm,
                     make_double_slit)
from .speckle import SpeckleStats, aperture_sample_count, intensity_stats, synthesize_frame
from .forward import MeasurementSet, bucket_measure, campaign_blocks, run_campaign
from .recon_gi import gi_from_blocks
from .recon_gics import (GicsParams, SensingSystem, SolveReport, build_sensing,
                         gics_reconstruct, gpsr_solve, ista_reference,
                         kkt_residual, lasso_objective, soft_threshold)
from .metrics import minmax_normalize, mse, psnr, recon_snr, slit_dip
from .harness import Scenario, load_scenario, parse_scenario_text, run_scenario

__version__ = "0.1.0"
