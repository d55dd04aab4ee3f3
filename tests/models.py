"""Fixed model sets that several test modules solve.

``acceptance_mix`` draws the acceptance mix from one seeded generator, so
every module that reads its first ``count`` draws sees the same algebras;
``LADDER_MODELS`` are the nilpotent models of the start-count ladder.
"""
import numpy as np

from lieweyl import samples


def acceptance_mix(count):
    """The first ``count`` draws of the acceptance mix: einstein, trace and
    generic almost abelian algebras in turn, n = 3..7."""
    rng = np.random.default_rng(1000)
    return [samples.random_almost_abelian(rng, (3, 4, 5, 6, 7)[(i // 3) % 5],
                                          ("einstein", "trace", "generic")[i % 3])
            for i in range(count)]


LADDER_MODELS = [samples.heisenberg(extra=k) for k in range(3)] + [
    samples.filiform4(), samples.free_two_step()]
