"""Exception types shared across the package."""


class SpinBathError(Exception):
    """Base class for all spinbath errors."""


class ModelError(SpinBathError):
    """Invalid model definition (sizes, duplicate bonds, out-of-range sites)."""


class DimensionError(SpinBathError):
    """State or operator dimension does not match the model."""


class SizeLimitError(SpinBathError):
    """A part's CSR would pass hamiltonian._KERNEL_BYTES, or go dense above spectrum.DEFAULT_DIM_CAP."""


class ChebyshevOrderError(SpinBathError):
    """Expansion did not converge within the allowed order.

    Raised instead of silently truncating past propagate.DEFAULT_MAX_ORDER;
    use the exact method, or shorter propagation steps, when the product of
    time/inverse-temperature and spectral width is large.
    """


class FitError(SpinBathError):
    """The inverse-temperature fit is undefined (no distinct energy pairs)."""


class ConfigError(SpinBathError):
    """Malformed experiment configuration."""
