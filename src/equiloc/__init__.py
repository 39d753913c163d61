"""equiloc: equivariant localization data and singular stationary-phase
asymptotics for a catalog of model Hamiltonian group actions, with every
formula cross-validated against independent brute-force quadrature.
"""

from .scalars import CRat
from .mpoly import LinForm, MPoly
from .symmat import SymMat, ldlt
from .ratexp import RatExp, RatTerm
from .piecewise import Piece, PiecewisePoly, ft_shifted
from .bumps import Bump, BumpHat, SmearingKernel
from .models import (Amplitude, CotangentCircle, FixedComponent, GroupData,
                     LinearCotangent, ModelError, Sphere, make_model,
                     rotation_generator)
from .oscillatory import (BaseNode, CleanPhase, DecayResult, OrderFit,
                          SPExpansion, decay_check, order_fit,
                          oscillatory_integral, sp_coefficients)
from .localization import (EquivariantForm, NoFixedPointsError,
                           asymptotic_l, bv_sum, bv_term, calibrate,
                           dh_measure, euler_inverse, jk_residue,
                           kirwan_integral, l_alpha, pairing_constant,
                           smeared_limit, u_f_symbolic)
from .resolution import (BlowupChart, CritWitness, IsotropyChain,
                         ResolutionCertificate, build_charts,
                         crit_conditions, direct_leading,
                         resolution_certificate, resolved_leading,
                         singular_sweep, stratify, transversal_hessian)

__version__ = "0.1.0"
