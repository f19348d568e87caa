"""Random band-limited fields for the tests.

The package draws coefficient tables (``fields.random_modes``) only for
the suites that run random trials; a test that wants a random field
takes one here, at a stated sup norm.
"""

from conformal_lab import fields as F


def random_bandlimited(basis, rng, degree: int, fourier: int = 0,
                       amplitude: float = 1.0):
    """A reproducible random field supported on low modes
    (``fields.random_modes``) and scaled so its sup norm is
    ``amplitude``."""
    return F.sup_normalized(basis, F.random_modes(basis, rng, degree,
                                                  fourier), amplitude)
