"""Exact and analytic verification of Tamagawa-number identities for
algebraic tori attached to quadratic and biquadratic fields."""

from .galois import build_torus, euler_factor_at_one, point_count_Fp
from .globalasm import verify_tnc
from .localmeasure import bad_prime_density
from .quadfield import QuadField
