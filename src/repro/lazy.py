"""Inert stand-ins for the retired graph-capture runtime.

Eval-mode inference runs eagerly on ndarrays; nothing is captured. These
two names exist only because the frozen ``bench/`` workload
``dlrm_hybrid_infer`` still imports them. ROADMAP item 1(f) deletes that
import, and this module with it.
"""

from contextlib import contextmanager


class NumpyRuntime:
    """A runtime that captures nothing."""

    def cache_size(self) -> int:
        return 0


@contextmanager
def use_runtime(runtime):
    """Run the block unchanged: there is no runtime to install."""
    yield
