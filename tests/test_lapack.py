"""The LAPACK gateway: scipy's own routine objects, and scipy.linalg's bits."""

import importlib.machinery
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import ltpkit
from ltpkit import _lapack
from ltpkit.analysis import _similar_form

ROUTINES = ("dgeev", "zgeev", "dgees", "zgees", "zgetrf", "zgetrs", "zgecon")


def same_bits(ours, ref):
    return ours.dtype == ref.dtype and ours.shape == ref.shape \
        and ours.tobytes() == ref.tobytes()


class TestIdentity:
    def test_routines_are_scipys(self):
        for name in ROUTINES:
            assert getattr(_lapack.flapack, name) is getattr(scipy.linalg.lapack, name)
        assert _lapack.zgecon is scipy.linalg.lapack.zgecon

    def test_routines_are_scipys_when_scipy_linalg_comes_later(self):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(ltpkit.__file__).resolve().parents[1]))
        script = (
            "import sys\n"
            "from ltpkit import _lapack\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "import scipy.linalg\n"
            "assert sys.modules['scipy.linalg._flapack'] is _lapack.flapack\n"
            f"for name in {ROUTINES!r}:\n"
            "    assert getattr(_lapack.flapack, name) is getattr(scipy.linalg.lapack, name), name\n")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_falls_back_to_scipy_linalg_lapack(self, monkeypatch):
        # no extension file found: scipy.linalg.lapack holds the same routines
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            lambda *args, **kwargs: None)
        fallback = _lapack._load_flapack()
        assert fallback is scipy.linalg.lapack
        for name in ROUTINES:
            assert getattr(fallback, name) is getattr(_lapack.flapack, name)


@pytest.fixture(scope="module", params=["case1_balanced", "case2_default"])
def hss(request):
    return request.getfixturevalue(request.param)[1].hss


def w_blocks(hss):
    """Each invariant block of the similar form W, in real form (what
    ``eigenvalues`` solves) and in complex form (before Im W is dropped)."""
    assert hss.real_form
    w = _similar_form(hss.stability_matrix(), hss.partner)
    return [m for _, cols, w_b in hss._similar[0]
            for m in (w_b, w[np.ix_(cols, cols)])]


class TestBits:
    def test_lu_factor_and_solve(self, hss):
        newton = -hss.stability_matrix()
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal(newton.shape[0]) + 1j * rng.standard_normal(newton.shape[0])
        for matrix in [newton] + w_blocks(hss):
            lu, piv, info = _lapack.lu_factor(matrix)
            lu_ref, piv_ref = scipy.linalg.lu_factor(matrix, check_finite=False)
            assert info == 0
            assert same_bits(lu, lu_ref) and same_bits(piv, piv_ref)
            for b in (rhs[:matrix.shape[0]], hss.b_full[:matrix.shape[0]]):
                assert same_bits(_lapack.lu_solve((lu, piv), b),
                                 scipy.linalg.lu_solve((lu_ref, piv_ref), b,
                                                       check_finite=False))

    def test_eigvals(self, hss):
        for matrix in [-hss.stability_matrix()] + w_blocks(hss):
            assert same_bits(_lapack.eigvals(matrix), scipy.linalg.eigvals(matrix))

    @pytest.mark.parametrize("output", ["real", "complex"])
    def test_schur(self, hss, output):
        for matrix in w_blocks(hss):
            for ours, ref in zip(_lapack.schur(matrix, output=output),
                                 scipy.linalg.schur(matrix, output=output)):
                assert same_bits(ours, ref)

    def test_inputs_kept(self, hss):
        newton = -hss.stability_matrix()
        kept = newton.copy()
        lu_piv = _lapack.lu_factor(newton)[:2]
        b = hss.b_full.copy()
        _lapack.lu_solve(lu_piv, b)
        _lapack.eigvals(newton)
        _lapack.schur(newton)
        assert same_bits(newton, kept) and same_bits(b, hss.b_full)


class TestFailures:
    def test_zero_pivot_reported_in_info(self):
        lu, piv, info = _lapack.lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex))
        assert info == 2

    @pytest.mark.parametrize("routine", [_lapack.eigvals, _lapack.schur])
    def test_non_finite_input_refused(self, routine):
        with pytest.raises(ValueError):
            routine(np.array([[1.0, np.nan], [0.0, 1.0]]))
