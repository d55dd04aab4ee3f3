"""The warm classify-and-solve path against the forms it replaced, bit for bit.

``decompose``, the quotient's multiplication matrices and commutators, the
frame maps and the per-n tables of the residual system were rewritten with
the same arithmetic, for speed.  Their earlier forms are kept in ``oracle``.
These tests run every stage both ways on algebras with no cached geometry and
require every field of ``AADecomposition``, ``AAClassification`` and
``SolveResult`` to agree byte for byte: the acceptance mix, einstein and trace
draws at n = 8..12, and the nilpotent ladder models with a seeded search.
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


MODEL_SETS = {
    "acceptance": lambda: acceptance_mix(300),
    "large": _large_draws,
    "ladder": lambda: LADDER_MODELS,
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


def _outputs(m, decompose):
    m = MetricLieAlgebra(LieAlgebra(m.c), m.metric)  # no cached geometry
    try:
        dec = decompose(m)
    except NotAlmostAbelianError:
        dec = cls = None
    else:
        cls = almost_abelian.classify_weyl_einstein(dec, m)
    # with starts, algebras without a real root also run the seeded search
    return dec, cls, weyl.solve_lee_forms(m), weyl.solve_lee_forms(m, starts=8)


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
    algebras = MODEL_SETS[models]()
    new = [_outputs(m, almost_abelian.decompose) for m in algebras]
    _install_earlier_forms(monkeypatch)
    for i, m in enumerate(algebras):
        _assert_same_bits(new[i], _outputs(m, oracle.decompose_by_column_stack), f"{models}[{i}]")


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
