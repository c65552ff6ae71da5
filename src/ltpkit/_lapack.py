"""scipy's compiled LAPACK wrappers, reached without importing ``scipy.linalg``.

``import scipy.linalg`` costs about 0.2 s, most of it in scipy's array-API
layer, and ltpkit needs only a handful of the f2py routines in
``scipy.linalg._flapack``.  That extension is loaded here from the scipy
package directory and registered in ``sys.modules`` under its own name, so a
later ``import scipy.linalg`` reuses the same module and routine objects.
Where the file is not found, ``scipy.linalg.lapack`` (the same routines,
behind the slow import) stands in.

Each function below makes the LAPACK calls that scipy 1.17's function of the
same name makes with ltpkit's arguments, so the results carry the same bits.
Only the double-precision routines are used: ``z`` for complex input, ``d``
otherwise.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys

import numpy as np


def _load_flapack():
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    # finding scipy.linalg imports scipy (whose subpackages load lazily) but
    # does not run scipy/linalg/__init__.py; the path finder then tries each
    # extension suffix in its directory
    linalg = importlib.util.find_spec("scipy.linalg")
    spec = importlib.machinery.PathFinder.find_spec(name, linalg.submodule_search_locations)
    if spec is None:
        from scipy.linalg import lapack
        return lapack
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


flapack = _load_flapack()
zgecon = flapack.zgecon


def _routine(name: str, *arrays):
    """``name``'s ``z`` routine if any of ``arrays`` is complex, else its ``d``."""
    return getattr(flapack, ("z" if any(map(np.iscomplexobj, arrays)) else "d") + name)


def _check(info: int, driver: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {driver}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{driver} did not converge (LAPACK info={info})")


def lu_factor(a: np.ndarray):
    """LU factors of ``a`` with partial pivoting: ``(lu, piv, info)``.

    ``getrf`` on a copy of ``a``; ``info`` > 0 names the (1-based) exactly
    zero diagonal entry of U, where scipy's ``lu_factor`` would warn.
    """
    lu, piv, info = _routine("getrf", a)(a, overwrite_a=False)
    if info < 0:
        _check(info, "getrf")
    return lu, piv, info


def lu_solve(lu_and_piv, b: np.ndarray) -> np.ndarray:
    """x with a x = b, from ``lu_factor``'s ``(lu, piv)``; ``b`` is kept."""
    lu, piv = lu_and_piv
    x, info = _routine("getrs", lu, b)(lu, piv, b, trans=0, overwrite_b=False)
    _check(info, "getrs")
    return x


def eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the finite square matrix ``a`` (``geev``, no vectors)."""
    a = np.asarray_chkfinite(a)
    geev, geev_lwork = _routine("geev", a), _routine("geev_lwork", a)
    work, info = geev_lwork(a.shape[0], compute_vl=0, compute_vr=0)
    _check(info, "geev_lwork")
    lwork = int(work.real)
    if np.iscomplexobj(a):
        w, _, _, info = geev(a, lwork=lwork, compute_vl=0, compute_vr=0,
                             overwrite_a=False)
    else:
        wr, wi, _, _, info = geev(a, lwork=lwork, compute_vl=0, compute_vr=0,
                                  overwrite_a=False)
        w = wr + np.array(1j, dtype="F") * wi
    _check(info, "eig algorithm (geev)")
    return w


def schur(a: np.ndarray, output: str = "real"):
    """Schur form ``(T, Z)`` of the finite square matrix ``a``, unsorted.

    ``output="complex"`` casts a real ``a`` to complex first, giving a
    triangular T; otherwise a real ``a`` gives the quasi-triangular real form.
    """
    a = np.asarray_chkfinite(a)
    overwrite_a = False
    if output == "complex" and not np.iscomplexobj(a):
        a, overwrite_a = a.astype(complex), True   # a private copy
    gees = _routine("gees", a)
    lwork = gees(lambda x: None, a, lwork=-1)[-2][0].real.astype(np.int_)
    result = gees(lambda x, y=None: None, a, lwork=lwork, overwrite_a=overwrite_a,
                  sort_t=0)
    _check(result[-1], "gees")
    return result[0], result[-3]
