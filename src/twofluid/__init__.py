"""Two-fluid compressible flow laboratory with algebraic pressure closure.

The package is used through its modules (``twofluid.config``,
``twofluid.dynamics``, ``twofluid.twin`` and so on); the package root
re-exports nothing.
"""

__version__ = "0.1.0"
