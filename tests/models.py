"""Fixed model sets that several test modules solve.

``acceptance_mix`` draws the acceptance mix from one seeded generator, so
every module that reads its first ``count`` draws sees the same algebras;
``almost_abelian_draws`` adds almost abelian algebras up to n = 12;
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


def almost_abelian_draws(seed):
    """Almost abelian algebras in random bases at n = 3..12: an einstein and a
    trace draw at each n, and a generic one up to n = 10, beyond which its
    rejection sampler fails."""
    rng = np.random.default_rng(seed)
    return [samples.random_almost_abelian(rng, n, kind)
            for n in range(3, 13) for kind in ("einstein", "trace", "generic")
            if kind != "generic" or n <= 10]


LADDER_MODELS = [samples.heisenberg(extra=k) for k in range(3)] + [
    samples.filiform4(), samples.free_two_step()]
