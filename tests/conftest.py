import numpy as np
import pytest

from curvedqgt import geometry as geo
from curvedqgt import models
from curvedqgt.diffops import d_log_det_g, d_psi


@pytest.fixture(scope="session")
def anharmonic():
    return models.get_model("anharmonic-1d")


@pytest.fixture(scope="session")
def morse():
    return models.get_model("morse-like")


@pytest.fixture(scope="session")
def coupled():
    return models.get_model("coupled-anharmonic-2d")


@pytest.fixture(scope="session")
def generalized():
    return models.get_model("generalized-anharmonic")


@pytest.fixture(scope="session")
def flat():
    return models.get_model("flat-oscillator-1d")


@pytest.fixture(scope="session")
def all_models(anharmonic, morse, coupled, generalized):
    return [anharmonic, morse, coupled, generalized]


def make_engine(model, lam, cfg=None):
    lamv = np.asarray(lam, dtype=float)
    return geo.GeometryEngine(
        model.psi, model.metric, model.domain_for(lamv), cfg,
        in_domain=model.in_domain,
    )


def expanded_brackets(eng, lam, n):
    """The brackets of the paper's expanded QGT formula at one point,
    read from the Gram of the 2m + 1 columns [psi, d_r psi, sigma_r psi]:

        A[r,k] = <d_r psi|d_k psi>         c[r] = <psi|d_r psi>
        B[r,k] = <psi|sigma_r|d_k psi>     s[r] = <sigma_r>
        S[r,k] = <sigma_r sigma_k>
    """
    lamv = np.asarray(lam, dtype=float)
    m, fd, in_domain = lamv.size, eng.cfg.fd, eng.in_domain

    def columns(p, *axes):
        psi = np.asarray(eng.psi.eval(p, n, *axes))
        dpsi = d_psi(eng.psi, n, p, fd, *axes, in_domain=in_domain)
        sigma = -d_log_det_g(eng.metric, p, fd, *axes, in_domain=in_domain)
        return [psi, *dpsi, *(sigma * psi)]

    gram, _ = eng.bracket(lamv, columns)
    d, s = slice(1, m + 1), slice(m + 1, 2 * m + 1)
    return {"A": gram[d, d], "B": gram[s, d], "S": gram[s, s].real,
            "c": gram[0, d], "s": gram[0, s].real}


def expanded_qgt(br):
    """The expanded formula of the QGT in the brackets of
    :func:`expanded_brackets`:
    A - c* c - (B + B^H)/4 + (s c + c* s)/4 + (S - s s)/16."""
    A, B, S, c, s = br["A"], br["B"], br["S"], br["c"], br["s"]
    c_col, c_row = np.conj(c)[:, None], c[None, :]
    s_col, s_row = s[:, None], s[None, :]
    return (A - c_col * c_row - 0.25 * (B + np.conj(B.T))
            + 0.25 * (s_col * c_row + c_col * s_row) + (S - s_col * s_row) / 16.0)


@pytest.fixture(scope="session")
def engine_factory():
    cache = {}

    def factory(model, lam, cfg=None):
        key = (model.name, model.hbar, tuple(np.asarray(lam, dtype=float)),
               id(cfg))
        if key not in cache:
            cache[key] = make_engine(model, lam, cfg)
        return cache[key]

    return factory
