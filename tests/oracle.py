"""The dense standard-basis formula for the Weyl-Einstein residual, as a test oracle.

The package evaluates E through one map, the packed frame system that the
solver iterates on.  This module forms E directly from the Ricci form, the
codifferential and the symmetrised ad of the Lee vector in the standard basis,
so tests can check the solver and the frame map against an independent route
instead of against themselves.
"""
import numpy as np

from lieweyl import riemann
from lieweyl.weyl import WEResidual


def dense_weyl_einstein_residual(m, theta) -> WEResidual:
    """E = Ric^g - (scal + (n-2)(tr ad_T + |theta|^2)) g / n
    + (n-2)(sym(ad_T) + theta (x) theta), with ``norm`` its frame norm."""
    n = m.dim
    theta = np.asarray(theta, dtype=float)
    dual = m.raise_covector(theta)
    base = riemann.ricci(m)
    tr_ad = riemann.codifferential_oneform(m, theta)
    e = (
        base.ricci
        - ((base.scalar + (n - 2) * (tr_ad + float(theta @ dual))) / n) * m.metric
        + (n - 2) * (m.sym_ad_form(dual) + np.outer(theta, theta))
    )
    return WEResidual(matrix=e, norm=m.form_norm(e))
