"""Norm-controlled layers, certification, and margin losses at desk scale.

The library builds orthogonal operators from unconstrained low-rank
parameters (dense block reflectors and their FFT-domain convolutional
counterpart), composes per-layer Lipschitz constants into certified
l2 robustness radii, and trains miniature networks with margin-shaping
losses through a small reverse-mode tape. A CLI exposes verification,
training, certification, loss diagnostics, and wall-time benchmarks.
"""

from .certify import (CertificationReport, SampleRecord, accuracy_radius_curve,
                      build_report, certified_radius, compose_lipschitz,
                      lln_certified_radius, margin, radius_stats)
from .checkpoint import load_checkpoint, save_checkpoint
from .data import toy_dataset
from .errors import (ContractError, DivergedError, FormatError, ShapeError,
                     SingularParameter)
from .losses import (LossConfig, LossResult, ce_cr_loss, la_loss, loss_curves,
                     ramp_loss)
from .models import (LayerSpec, Network, bronet_mini, build_model,
                     lipconvnet_mini)
from .ortho import (BroConvKernel, BroParam, ConvGeometry, bro_conv_forward,
                    bro_orthogonalize, cayley_orthogonalize, lot_orthogonalize,
                    materialize_conv_matrix)
from .tape import Tape, Var, grad_check
from .tensor import Tensor, alloc_stats, reset_alloc_stats
from .train import TrainConfig, TrainLog, evaluate, pgd_attack, train

__version__ = "0.1.0"
