import pytest

from painleve_calogero import (
    AuxParams,
    EllipticContext,
    PhaseState,
    SystemDescriptor,
    autonomous_check,
    canonical_field,
    elliptic,
    hamiltonian,
    hamiltonian_gradients,
    param_to_painleve,
)
from painleve_calogero.errors import TwoBodyCollision, UnsupportedEquation
from tests.conftest import BASE_TIME, aux_for, calogero_state, painleve_state

EQS = ("VI", "V", "IV", "III", "II", "I")


def test_param_to_painleve_vi():
    p = param_to_painleve(AuxParams("VI", kappa0=1, kappa1=1, theta=1, kappa=0))
    assert p.alpha == 2 and p.beta == -0.5 and p.gamma == 0.5 and p.delta == 0


def test_param_to_painleve_iv():
    p = param_to_painleve(AuxParams("IV", theta_inf=0, kappa0=0))
    assert p.alpha == 1 and p.beta == 0


def test_param_to_painleve_iii():
    p = param_to_painleve(AuxParams("III", eta_inf=1, theta_inf=1, eta0=1, theta0=1))
    assert (p.alpha, p.beta, p.gamma, p.delta) == (-4, 8, 4, -4)


def test_param_to_painleve_rejects_ii_i():
    with pytest.raises(UnsupportedEquation):
        param_to_painleve(AuxParams("II", alpha=1))
    with pytest.raises(UnsupportedEquation):
        param_to_painleve(AuxParams("I"))


def test_param_round_trip():
    aux = aux_for("VI")
    p = param_to_painleve(aux)
    p2 = param_to_painleve(aux)
    assert p == p2  # relations are evaluated exactly, not fitted


def test_pi_hamiltonian_vanishes_at_origin():
    sd = SystemDescriptor("I", "painleve")
    assert hamiltonian(sd, PhaseState((0,), (0,), 0)) == 0


def test_pii_calogero_value():
    sd = SystemDescriptor("II", "calogero", params=AuxParams("II", alpha=0.7 + 0.3j))
    h = hamiltonian(sd, PhaseState((0,), (1,), 0))
    assert abs(h - 0.5) < 1e-15


def test_rank2_pii_calogero_hand_value():
    # sum of -(q_j^2)^2/2 plus g4^2/(q_1 - q_2)^2 = -1 + 1/4
    sd = SystemDescriptor("II", "calogero", rank=2, g4sq=1,
                          params=AuxParams("II", alpha=0))
    h = hamiltonian(sd, PhaseState((1, -1), (0, 0), 0))
    assert abs(h - (-0.75)) < 1e-15


def test_pvi_calogero_momentum_gradient():
    aux = aux_for("VI")
    sd = SystemDescriptor("VI", "calogero", params=aux)
    st = PhaseState((0.21 + 0.24j,), (0.5 - 0.25j,), BASE_TIME["VI"])
    _, dmu = hamiltonian_gradients(sd, st)
    assert dmu[0] == st.momenta[0]


def test_pi_gradients_closed_form():
    sd = SystemDescriptor("I", "painleve")
    st = PhaseState((0.7 + 0.2j,), (0.4 - 0.1j,), 1.3)
    dlam, dmu = hamiltonian_gradients(sd, st)
    lam = st.coords[0]
    assert dmu[0] == st.momenta[0]
    assert abs(dlam[0] - (-6 * lam**2 - st.time)) < 1e-15


def _fd_gradients(sd, st, ctx=None, h=1e-6):
    rank = st.rank
    dc, dm = [], []
    for j in range(rank):
        for target, out in (("coords", dc), ("momenta", dm)):
            vals = []
            for s in (h, -h):
                c = list(st.coords)
                m = list(st.momenta)
                (c if target == "coords" else m)[j] += s
                vals.append(hamiltonian(sd, PhaseState(tuple(c), tuple(m), st.time), ctx))
            out.append((vals[0] - vals[1]) / (2 * h))
    return dc, dm


@pytest.mark.parametrize("eq", EQS)
@pytest.mark.parametrize("side", ("painleve", "calogero"))
@pytest.mark.parametrize("rank", (1, 3))
def test_gradients_match_finite_differences(eq, side, rank, rng):
    g4 = 0.7 + 0j if rank == 3 else 0j
    sd = SystemDescriptor(eq, side, rank, g4, aux_for(eq))
    for _ in range(5):
        st = calogero_state(eq, rank, rng) if side == "calogero" \
            else painleve_state(eq, rank, rng)
        ctx = EllipticContext(st.time) if (eq, side) == ("VI", "calogero") else None
        dc, dm = hamiltonian_gradients(sd, st, ctx)
        fdc, fdm = _fd_gradients(sd, st, ctx)
        for a, b in zip(list(dc) + list(dm), fdc + fdm):
            assert abs(a - b) / max(1.0, abs(b)) < 1e-6


def test_rank1_two_body_is_inert():
    # same code path: rank 1 with g4 != 0 equals rank 1 with g4 = 0
    aux = aux_for("V")
    st = PhaseState((0.6 + 0.2j,), (0.4,), 0.9)
    h0 = hamiltonian(SystemDescriptor("V", "calogero", 1, 0, aux), st)
    h1 = hamiltonian(SystemDescriptor("V", "calogero", 1, 5.0, aux), st)
    assert h0 == h1


@pytest.mark.parametrize("eq", EQS)
def test_permutation_invariance(eq, rng):
    sd = SystemDescriptor(eq, "calogero", 3, 0.7, aux_for(eq))
    st = calogero_state(eq, 3, rng)
    perm = (2, 0, 1)
    st_p = PhaseState(tuple(st.coords[i] for i in perm),
                      tuple(st.momenta[i] for i in perm), st.time)
    ctx = EllipticContext(st.time) if eq == "VI" else None
    h1, h2 = hamiltonian(sd, st, ctx), hamiltonian(sd, st_p, ctx)
    assert abs(h1 - h2) <= 1e-12 * max(1.0, abs(h1))


@pytest.mark.parametrize("eq", ("VI", "V", "IV"))
def test_parity_invariance(eq, rng):
    # even one- and two-body potentials: q -> -q with p -> -p preserves H
    sd = SystemDescriptor(eq, "calogero", 3, 0.7, aux_for(eq))
    st = calogero_state(eq, 3, rng)
    st_m = PhaseState(tuple(-c for c in st.coords),
                      tuple(-m for m in st.momenta), st.time)
    ctx = EllipticContext(st.time) if eq == "VI" else None
    h1, h2 = hamiltonian(sd, st, ctx), hamiltonian(sd, st_m, ctx)
    assert abs(h1 - h2) <= 1e-12 * max(1.0, abs(h1))


def test_two_body_collision_raises():
    sd = SystemDescriptor("II", "calogero", 2, 1.0, params=AuxParams("II", alpha=0))
    with pytest.raises(TwoBodyCollision):
        hamiltonian(sd, PhaseState((0.3, 0.3), (0, 0), 0.1))


def test_one_body_pole_raises():
    from painleve_calogero.errors import CoordinateSingularity

    sd = SystemDescriptor("VI", "painleve", params=aux_for("VI"))
    t = 0.83 + 0.21j
    for lam in (0, 1, t):
        with pytest.raises(CoordinateSingularity):
            hamiltonian(sd, PhaseState((lam,), (0.2,), t))


def test_autonomous_check_pi():
    sd = SystemDescriptor("I", "painleve")
    res = autonomous_check(sd, PhaseState((1,), (1,), 1))
    assert abs(res) < 1e-8


def test_autonomous_check_pv_calogero(rng):
    sd = SystemDescriptor("V", "calogero", params=aux_for("V"))
    res = autonomous_check(sd, calogero_state("V", 1, rng))
    assert abs(res) < 1e-6


def test_autonomous_check_pvi_calogero(rng):
    sd = SystemDescriptor("VI", "calogero", params=aux_for("VI"))
    st = calogero_state("VI", 1, rng)
    res = autonomous_check(sd, st, EllipticContext(st.time))
    assert abs(res) < 1e-5


def test_time_gauges():
    aux = aux_for("V")
    assert SystemDescriptor("VI", "calogero", params=aux_for("VI")).time_gauge == "tau"
    assert SystemDescriptor("V", "calogero", params=aux).time_gauge == "log_t"
    assert SystemDescriptor("III", "calogero", params=aux_for("III")).time_gauge == "log_t"
    assert SystemDescriptor("IV", "calogero", params=aux_for("IV")).time_gauge == "t"
    for eq in EQS:
        assert SystemDescriptor(eq, "painleve", params=aux_for(eq)).time_gauge == "t"


def test_calogero_side_accepts_painleve_params(rng):
    aux = aux_for("V")
    p = param_to_painleve(aux)
    st = calogero_state("V", 1, rng)
    h_aux = hamiltonian(SystemDescriptor("V", "calogero", params=aux), st)
    h_pp = hamiltonian(SystemDescriptor("V", "calogero", params=p), st)
    assert h_aux == h_pp


def test_pvi_rank3_field_call_counts(monkeypatch, rng):
    # one PVI rank-3 field call: 4 shifted wp per coordinate plus wp(q_j - q_k)
    # and wp(q_j + q_k) per pair, each with its wp', in one context
    calls = {"wp": 0, "wp_prime": 0, "context": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(elliptic, "weierstrass_p", counted("wp", elliptic.weierstrass_p))
    monkeypatch.setattr(elliptic, "weierstrass_p_prime",
                        counted("wp_prime", elliptic.weierstrass_p_prime))
    monkeypatch.setattr(EllipticContext, "__post_init__",
                        counted("context", EllipticContext.__post_init__))
    sd = SystemDescriptor("VI", "calogero", 3, 0.7, aux_for("VI"))
    canonical_field(sd, calogero_state("VI", 3, rng))
    assert calls == {"wp": 18, "wp_prime": 18, "context": 1}
