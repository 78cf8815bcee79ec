"""lesionprep: dermoscopy image refinement and evaluation toolkit.

Submodules:
  raster      - rasters and the netpbm codec
  preprocess  - unsharp sharpening + DullRazor-style hair removal
  quality     - PSNR / MSE / MAXERR / L2RAT reports
  dataset     - scanning, stratified splitting, manifests
  probe       - fixed features and one logistic unit, held as theta
  evaluation  - prediction-log parsing and classification metrics
  cli         - the `lesionprep` command
"""

__version__ = "0.1.0"
