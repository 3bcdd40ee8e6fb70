"""Exception types shared across the package."""

__all__ = ["DomainError", "SymplecticError", "IntegrationError", "QuadratureError"]


class DomainError(ValueError):
    """Parameters outside the validity domain of a profile or propagator."""


class SymplecticError(ValueError):
    """A matrix violates the symplectic (unit-determinant) requirement."""


class IntegrationError(RuntimeError):
    """The numeric integrator failed or exceeded its step budget."""


class QuadratureError(RuntimeError):
    """A quadrature did not reach the requested accuracy."""
