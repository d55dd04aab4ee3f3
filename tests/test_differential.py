"""The warm classify-and-solve path against the forms it replaced, bit for bit.

``decompose``, the quotient's multiplication matrices and commutators, the
frame maps, the per-n tables of the residual system and the Jacobian and
residual of the iteration were rewritten with the same arithmetic, for speed.
Their earlier forms are kept in ``oracle``.  These tests run every stage both
ways on algebras with no cached geometry and require every field of
``AADecomposition``, ``AAClassification`` and ``SolveResult``, and the final
points, residuals and exit rules of every LM run, to agree byte for byte: the
acceptance mix, einstein and trace draws at n = 8..12, and the nilpotent
ladder models at 8 and at 800 seeded starts.
"""
import numpy as np
import pytest

from lieweyl import LieAlgebra, MetricLieAlgebra, almost_abelian, frames, samples, weyl
from lieweyl.errors import NotAlmostAbelianError
from models import LADDER_MODELS, acceptance_mix
import oracle


def _large_draws():
    rng = np.random.default_rng(2024)
    return [samples.random_almost_abelian(rng, 8 + i % 5, ("einstein", "trace")[i % 2])
            for i in range(60)]


# name: (algebras, seeded starts)
MODEL_SETS = {
    "acceptance": (lambda: acceptance_mix(300), 8),
    "large": (_large_draws, 8),
    "ladder": (lambda: LADDER_MODELS, 8),
    # batch-sized arrays of up to 788 KiB, past the allocator's mmap
    # threshold, which the arrays of 8 starts never reach
    "ladder-800": (lambda: LADDER_MODELS, 800),
}


def _install_earlier_forms(monkeypatch):
    build = weyl._ResidualSystem.__init__

    def build_per_system(self, m):
        build(self, m)
        self.hess, self.curv, self.gram = oracle.residual_tables_by_system(self)

    monkeypatch.setattr(frames, "tensor_in_basis", oracle.tensor_in_basis_by_tensordot)
    monkeypatch.setattr(weyl._ResidualSystem, "__init__", build_per_system)
    monkeypatch.setattr(weyl._ResidualSystem, "multiplication_matrices",
                        oracle.multiplication_matrices_by_scatter)
    monkeypatch.setattr(weyl, "_commutators", oracle.commutators_by_products)
    monkeypatch.setattr(weyl._ResidualSystem, "jacobian", oracle.jacobian_by_sum)
    monkeypatch.setattr(weyl._ResidualSystem, "residual", oracle.residual_by_sum)


def _outputs(m, decompose, starts, monkeypatch):
    m = MetricLieAlgebra(LieAlgebra(m.c), m.metric)  # no cached geometry
    try:
        dec = decompose(m)
    except NotAlmostAbelianError:
        dec = cls = None
    else:
        cls = almost_abelian.classify_weyl_einstein(dec, m)
    # every LM run, polish and seeded search, with the final point, residual
    # and exit rule of each start; with starts, algebras without a real root
    # also run the seeded search
    runs = []
    lm = weyl._levenberg_marquardt

    def recording(*args):
        runs.append(lm(*args))
        return runs[-1]

    monkeypatch.setattr(weyl, "_levenberg_marquardt", recording)
    solved = weyl.solve_lee_forms(m), weyl.solve_lee_forms(m, starts=starts)
    monkeypatch.setattr(weyl, "_levenberg_marquardt", lm)
    return dec, cls, *solved, tuple(runs)


def _assert_same_bits(new, old, where):
    if isinstance(new, tuple):  # the result records, and the root tuples in them
        assert type(new) is type(old) and len(new) == len(old), where
        names = getattr(new, "_fields", range(len(new)))
        for name, a, b in zip(names, new, old):
            _assert_same_bits(a, b, f"{where}.{name}")
    elif isinstance(new, (np.ndarray, float)):
        a, b = np.asarray(new), np.asarray(old)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), where
    else:  # cases, counts, flags, the exit mappings, None
        assert new == old and type(new) is type(old), where


@pytest.mark.parametrize("models", MODEL_SETS)
def test_every_result_field_equals_the_earlier_forms_bit_for_bit(monkeypatch, models):
    draw, starts = MODEL_SETS[models]
    algebras = draw()
    new = [_outputs(m, almost_abelian.decompose, starts, monkeypatch) for m in algebras]
    _install_earlier_forms(monkeypatch)
    for i, m in enumerate(algebras):
        old = _outputs(m, oracle.decompose_by_column_stack, starts, monkeypatch)
        _assert_same_bits(new[i], old, f"{models}[{i}]")


def test_sampler_draws_equal_the_earlier_frame_maps_bit_for_bit(monkeypatch):
    # the samplers move each draw by change_basis, which runs tensor_in_basis
    new = acceptance_mix(60) + _large_draws()
    monkeypatch.setattr(frames, "tensor_in_basis", oracle.tensor_in_basis_by_tensordot)
    for i, (a, b) in enumerate(zip(new, acceptance_mix(60) + _large_draws())):
        assert (a.c.tobytes(), a.metric.tobytes()) == (b.c.tobytes(), b.metric.tobytes()), i


def test_quotient_stages_equal_the_earlier_forms_and_stay_c_ordered():
    # unpacking by a gather that is not C-ordered, as fancy indexing on the
    # last axis gives, moves the products of the multiplication matrices in
    # their last bits; the stage comparison below sees that directly
    for m in acceptance_mix(60) + _large_draws()[:10]:
        system = weyl._ResidualSystem(m)
        packed = np.concatenate((system.const[None], system.lin.T))
        assert system.unpack(packed).flags.c_contiguous
        mult = system.multiplication_matrices()
        assert mult.tobytes() == oracle.multiplication_matrices_by_scatter(system).tobytes()
        commutators = weyl._commutators(mult)
        assert commutators.tobytes() == oracle.commutators_by_products(mult).tobytes()
