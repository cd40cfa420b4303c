import cmath
import dataclasses
import re

import pytest

from painleve_calogero import (
    AuxParams,
    EllipticContext,
    PainleveParams,
    PhaseState,
    SystemDescriptor,
    canonical_field,
    elliptic,
    hamiltonian,
    hamiltonian_gradients,
    param_to_painleve,
    systems,
)
from painleve_calogero.errors import TwoBodyCollision
from painleve_calogero.systems import gauge_factor
from painleve_calogero.verify.correspondence import BASE_TIME, default_aux, sample_calogero_state
from tests.conftest import painleve_state

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


def test_param_to_painleve_ii_passes_alpha_i_has_none():
    assert param_to_painleve(AuxParams("II", alpha=0.37 + 0.21j)) == PainleveParams(
        "II", alpha=0.37 + 0.21j)
    assert param_to_painleve(AuxParams("I")) == PainleveParams("I")


def test_param_round_trip():
    aux = default_aux("VI")
    p = param_to_painleve(aux)
    p2 = param_to_painleve(aux)
    assert p == p2  # relations are evaluated exactly, not fitted


def test_phase_state_keeps_the_dataclass_contract():
    # its __init__ is written out; what the generated one gave must hold
    assert [f.name for f in dataclasses.fields(PhaseState)] == ["coords", "momenta", "time"]
    st = PhaseState([1, 2j], [0.5, 1], 3)
    assert st.coords == (1 + 0j, 2j) and st.momenta == (0.5 + 0j, 1 + 0j) and st.time == 3
    assert type(st.coords) is tuple and type(st.momenta) is tuple
    assert all(type(v) is complex for v in (*st.coords, *st.momenta, st.time))
    assert st.rank == 2
    assert repr(st) == "PhaseState(coords=((1+0j), 2j), momenta=((0.5+0j), (1+0j)), time=(3+0j))"
    with pytest.raises(dataclasses.FrozenInstanceError):
        st.time = 1j
    twin = PhaseState((1 + 0j, 2j), (0.5, 1.0), 3.0)
    assert twin == st and hash(twin) == hash(st)
    assert twin != PhaseState((1, 2j), (0.5, 1), 3.5)
    assert dataclasses.replace(st, time=4) == PhaseState((1, 2j), (0.5, 1), 4)
    with pytest.raises(ValueError, match="equal length"):
        PhaseState((1, 2), (1,), 0)


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
    aux = default_aux("VI")
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


def _fd_gradients(sd, st, h=1e-6):
    rank = st.rank
    dc, dm = [], []
    for j in range(rank):
        for target, out in (("coords", dc), ("momenta", dm)):
            vals = []
            for s in (h, -h):
                c = list(st.coords)
                m = list(st.momenta)
                (c if target == "coords" else m)[j] += s
                vals.append(hamiltonian(sd, PhaseState(tuple(c), tuple(m), st.time)))
            out.append((vals[0] - vals[1]) / (2 * h))
    return dc, dm


@pytest.mark.parametrize("eq", EQS)
@pytest.mark.parametrize("side", ("painleve", "calogero"))
@pytest.mark.parametrize("rank", (1, 3))
def test_gradients_match_finite_differences(eq, side, rank, rng):
    g4 = 0.7 + 0j if rank == 3 else 0j
    sd = SystemDescriptor(eq, side, rank, g4, default_aux(eq))
    for _ in range(5):
        st = sample_calogero_state(eq, rank, rng) if side == "calogero" \
            else painleve_state(eq, rank, rng)
        dc, dm = hamiltonian_gradients(sd, st)
        fdc, fdm = _fd_gradients(sd, st)
        for a, b in zip(list(dc) + list(dm), fdc + fdm):
            assert abs(a - b) / max(1.0, abs(b)) < 1e-6


def test_rank1_two_body_is_inert():
    # same code path: rank 1 with g4 != 0 equals rank 1 with g4 = 0
    aux = default_aux("V")
    st = PhaseState((0.6 + 0.2j,), (0.4,), 0.9)
    h0 = hamiltonian(SystemDescriptor("V", "calogero", 1, 0, aux), st)
    h1 = hamiltonian(SystemDescriptor("V", "calogero", 1, 5.0, aux), st)
    assert h0 == h1


@pytest.mark.parametrize("eq", EQS)
def test_permutation_invariance(eq, rng):
    sd = SystemDescriptor(eq, "calogero", 3, 0.7, default_aux(eq))
    st = sample_calogero_state(eq, 3, rng)
    perm = (2, 0, 1)
    st_p = PhaseState(tuple(st.coords[i] for i in perm),
                      tuple(st.momenta[i] for i in perm), st.time)
    h1, h2 = hamiltonian(sd, st), hamiltonian(sd, st_p)
    assert abs(h1 - h2) <= 1e-12 * max(1.0, abs(h1))


@pytest.mark.parametrize("eq", ("VI", "V", "IV"))
def test_parity_invariance(eq, rng):
    # even one- and two-body potentials: q -> -q with p -> -p preserves H
    sd = SystemDescriptor(eq, "calogero", 3, 0.7, default_aux(eq))
    st = sample_calogero_state(eq, 3, rng)
    st_m = PhaseState(tuple(-c for c in st.coords),
                      tuple(-m for m in st.momenta), st.time)
    h1, h2 = hamiltonian(sd, st), hamiltonian(sd, st_m)
    assert abs(h1 - h2) <= 1e-12 * max(1.0, abs(h1))


def test_two_body_collision_raises():
    sd = SystemDescriptor("II", "calogero", 2, 1.0, params=AuxParams("II", alpha=0))
    with pytest.raises(TwoBodyCollision):
        hamiltonian(sd, PhaseState((0.3, 0.3), (0, 0), 0.1))


def test_one_body_pole_raises():
    from painleve_calogero.errors import CoordinateSingularity

    sd = SystemDescriptor("VI", "painleve", params=default_aux("VI"))
    t = 0.83 + 0.21j
    for lam in (0, 1, t):
        with pytest.raises(CoordinateSingularity):
            hamiltonian(sd, PhaseState((lam,), (0.2,), t))


@pytest.mark.parametrize("eq, side, coords", [
    ("V", "calogero", (2000,)), ("V", "calogero", (-2000,)), ("III", "calogero", (800,)),
    ("IV", "calogero", (1e300,)), ("IV", "painleve", (1e300,)), ("II", "calogero", (1e300, 0.3)),
])
def test_overflowing_term_raises_coordinate_singularity(eq, side, coords):
    from painleve_calogero import integrate
    from painleve_calogero.errors import CoordinateSingularity

    sd = SystemDescriptor(eq, side, len(coords), 0.5, params=default_aux(eq))
    st = PhaseState(coords, (0.5,) * len(coords), 0.5 + 0.5j)
    for call in (canonical_field, hamiltonian):
        with pytest.raises(CoordinateSingularity, match=re.escape(str(complex(coords[0])))):
            call(sd, st)
    # the first field call of integrate sits outside its step's rejection
    with pytest.raises(CoordinateSingularity):
        integrate(sd, st, 0.6 + 0.5j)


@pytest.mark.parametrize("q, reason", [(1e16 + 0.3j, "no fractional bit"),
                                       (complex("nan"), "must be finite")])
def test_unreducible_pvi_coordinate_raises_coordinate_singularity(q, reason):
    # the cell reduction's ValueError, under the field's one refusal
    from painleve_calogero.errors import CoordinateSingularity

    sd = SystemDescriptor("VI", "calogero", params=default_aux("VI"))
    for call in (canonical_field, hamiltonian):
        with pytest.raises(CoordinateSingularity, match=reason):
            call(sd, PhaseState((q,), (0.5,), 0.13 + 1.17j))


def autonomous_check(sys, state, dt=1e-6):
    """Chain-rule consistency diagnostic of the analytic gradients.

    Returns (dH/dT along the canonical flow, by central differences) minus
    (explicit dH/dT at frozen phase coordinates, by central differences).
    The difference vanishes identically when the analytic gradients match
    the Hamiltonian, so its magnitude measures gradient consistency.
    """
    qdot, pdot = canonical_field(sys, state)

    def h_at(s):
        st = PhaseState(
            tuple(c + s * v for c, v in zip(state.coords, qdot)),
            tuple(m + s * v for m, v in zip(state.momenta, pdot)),
            state.time + s,
        )
        return hamiltonian(sys, st)

    def h_time(s):
        return hamiltonian(sys, PhaseState(state.coords, state.momenta, state.time + s))

    along_flow = (h_at(dt) - h_at(-dt)) / (2 * dt)
    explicit = (h_time(dt) - h_time(-dt)) / (2 * dt)
    return along_flow - explicit


def test_autonomous_check_pi():
    sd = SystemDescriptor("I", "painleve")
    res = autonomous_check(sd, PhaseState((1,), (1,), 1))
    assert abs(res) < 1e-8


def test_autonomous_check_pv_calogero(rng):
    sd = SystemDescriptor("V", "calogero", params=default_aux("V"))
    res = autonomous_check(sd, sample_calogero_state("V", 1, rng))
    assert abs(res) < 1e-6


def test_autonomous_check_pvi_calogero(rng):
    sd = SystemDescriptor("VI", "calogero", params=default_aux("VI"))
    st = sample_calogero_state("VI", 1, rng)
    res = autonomous_check(sd, st)
    assert abs(res) < 1e-5


def test_time_gauges():
    aux = default_aux("V")
    assert SystemDescriptor("VI", "calogero", params=default_aux("VI")).time_gauge == "tau"
    assert SystemDescriptor("V", "calogero", params=aux).time_gauge == "log_t"
    assert SystemDescriptor("III", "calogero", params=default_aux("III")).time_gauge == "log_t"
    assert SystemDescriptor("IV", "calogero", params=default_aux("IV")).time_gauge == "t"
    for eq in EQS:
        assert SystemDescriptor(eq, "painleve", params=default_aux(eq)).time_gauge == "t"


@pytest.mark.parametrize("side", ("painleve", "calogero"))
def test_params_of_another_equation_are_refused(side):
    # the tag decides: a PVI set is not read as PV constants with gamma = delta = 0
    with pytest.raises(ValueError, match="PV system given parameters of PVI"):
        SystemDescriptor("V", side, params=default_aux("VI"))
    with pytest.raises(ValueError, match="PVI system given parameters of PV"):
        SystemDescriptor("VI", side, params=param_to_painleve(default_aux("V")))


def test_calogero_side_accepts_painleve_params(rng):
    aux = default_aux("V")
    p = param_to_painleve(aux)
    st = sample_calogero_state("V", 1, rng)
    h_aux = hamiltonian(SystemDescriptor("V", "calogero", params=aux), st)
    h_pp = hamiltonian(SystemDescriptor("V", "calogero", params=p), st)
    assert h_aux == h_pp


def test_pvi_rank3_field_call_counts(monkeypatch, rng, passes):
    # one PVI rank-3 field call: 4 shifted wp per coordinate plus wp(q_j - q_k)
    # and wp(q_j + q_k) per pair, each with its wp', in one context; wp at an
    # argument follows its wp' and reuses that joint pass: 18 passes, not 36
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
    sd = SystemDescriptor("VI", "calogero", 3, 0.7, default_aux("VI"))
    canonical_field(sd, sample_calogero_state("VI", 3, rng))
    assert calls == {"wp": 18, "wp_prime": 18, "context": 1}
    assert passes[0] == 18


# ---------------------------------------------------------------------------
# oracle: the per-side evaluation with one pair loop per side, as it stood
# before both sides shared one pair loop
# ---------------------------------------------------------------------------

def _oracle_painleve_two_body(eq, lams, t, g4sq):
    n = len(lams)
    total = 0j
    grad = [0j] * n
    if n == 1 or g4sq == 0:
        return total, grad

    def add_pair(j, k, val, dj, dk):
        nonlocal total
        total += val
        grad[j] += dj
        grad[k] += dk

    for j in range(n):
        for k in range(j + 1, n):
            lj, lk = lams[j], lams[k]
            d = systems._guard(lj - lk, "lambda_j - lambda_k")
            if eq == "VI":
                Pj = lj * (lj - 1) * (lj - t)
                Pk = lk * (lk - 1) * (lk - t)
                dPj = 3 * lj * lj - 2 * (1 + t) * lj + t
                dPk = 3 * lk * lk - 2 * (1 + t) * lk + t
                c = g4sq / (2 * t * (t - 1))
                val = c * (2 * (Pj + Pk) / d**2 - 2 * (lj + lk))
                dj = c * (2 * dPj / d**2 - 4 * (Pj + Pk) / d**3 - 2)
                dk = c * (2 * dPk / d**2 + 4 * (Pj + Pk) / d**3 - 2)
            elif eq == "V":
                c = g4sq / t
                num = (lj - 1) * (lk - 1) * (lj + lk)
                val = c * num / d**2
                dj = c * (((lk - 1) * (lj + lk) + (lj - 1) * (lk - 1)) / d**2 - 2 * num / d**3)
                dk = c * (((lj - 1) * (lj + lk) + (lj - 1) * (lk - 1)) / d**2 + 2 * num / d**3)
            elif eq == "IV":
                c = g4sq / 8
                val = c * (lj + lk) / d**2
                dj = c * (1 / d**2 - 2 * (lj + lk) / d**3)
                dk = c * (1 / d**2 + 2 * (lj + lk) / d**3)
            elif eq == "III":
                c = 2 * g4sq / t
                val = c * lj * lk / d**2
                dj = c * (lk / d**2 - 2 * lj * lk / d**3)
                dk = c * (lj / d**2 + 2 * lj * lk / d**3)
            else:  # II, I
                val = g4sq / d**2
                dj = -2 * g4sq / d**3
                dk = 2 * g4sq / d**3
            add_pair(j, k, val, dj, dk)
    return total, grad


def _oracle_calogero_two_body(eq, qs, g4sq, ctx):
    n = len(qs)
    total = 0j
    grad = [0j] * n
    if n == 1 or g4sq == 0:
        return total, grad

    def inv_sinh2(z):
        s = cmath.sinh(z)
        if abs(s) < 1e-12:
            raise TwoBodyCollision("sinh of pair separation vanishes")
        return 1 / s**2

    def d_inv_sinh2(z):
        s = cmath.sinh(z)
        return -2 * cmath.cosh(z) / s**3

    for j in range(n):
        for k in range(j + 1, n):
            dq = qs[j] - qs[k]
            sq = qs[j] + qs[k]
            if abs(dq) < 1e-12:
                raise TwoBodyCollision(f"q_{j} = q_{k}")
            if eq == "VI":
                val = g4sq * (elliptic.weierstrass_p(dq, ctx) + elliptic.weierstrass_p(sq, ctx))
                gd = g4sq * elliptic.weierstrass_p_prime(dq, ctx)
                gs = g4sq * elliptic.weierstrass_p_prime(sq, ctx)
                dj, dk = gd + gs, -gd + gs
            elif eq == "V":
                val = g4sq * (inv_sinh2(dq / 2) + inv_sinh2(sq / 2))
                gd = g4sq * d_inv_sinh2(dq / 2) / 2
                gs = g4sq * d_inv_sinh2(sq / 2) / 2
                dj, dk = gd + gs, -gd + gs
            elif eq == "IV":
                if abs(sq) < 1e-12:
                    raise TwoBodyCollision(f"q_{j} = -q_{k}")
                val = g4sq * (1 / dq**2 + 1 / sq**2)
                gd = -2 * g4sq / dq**3
                gs = -2 * g4sq / sq**3
                dj, dk = gd + gs, -gd + gs
            elif eq == "III":
                val = g4sq * inv_sinh2(dq / 2)
                gd = g4sq * d_inv_sinh2(dq / 2) / 2
                dj, dk = gd, -gd
            else:  # II, I
                val = g4sq / dq**2
                gd = -2 * g4sq / dq**3
                dj, dk = gd, -gd
            total += val
            grad[j] += dj
            grad[k] += dk
    return total, grad


def _oracle_evaluate(sys, state):
    """(H, dH/dcoords, dH/dmomenta) summed the way each side once did.

    The one-body terms are the module's, from its table ``_TERMS``; the
    Calogero one is taken at p = 0, which leaves the potential V1 and its
    gradient.
    """
    systems.check_state(sys, state)
    t = state.time
    one_body, params = systems._TERMS[sys.equation, sys.side][0], sys._terms[2]
    if sys.side == "painleve":
        total = 0j
        dlam = []
        dmu = []
        for lam, mu in zip(state.coords, state.momenta):
            h1, dl, dm = one_body(lam, mu, t, params)
            total += h1
            dlam.append(dl)
            dmu.append(dm)
        tb, tb_grad = _oracle_painleve_two_body(sys.equation, state.coords, t, sys.g4sq)
        total += tb
        dlam = [a + b for a, b in zip(dlam, tb_grad)]
        return total, tuple(dlam), tuple(dmu)

    cc = EllipticContext(t) if sys.time_gauge == "tau" else None
    total = 0j
    dq = []
    for q in state.coords:
        v1, dv1, _ = one_body(q, 0j, t if cc is None else cc, params)
        total += v1
        dq.append(dv1)
    for p in state.momenta:
        total += p * p / 2
    tb, tb_grad = _oracle_calogero_two_body(sys.equation, state.coords, sys.g4sq, cc)
    total += tb
    dq = [a + b for a, b in zip(dq, tb_grad)]
    return total, tuple(dq), tuple(state.momenta)


@pytest.mark.parametrize("eq", EQS)
@pytest.mark.parametrize("side", ("painleve", "calogero"))
@pytest.mark.parametrize("rank", (1, 3))
def test_shared_pair_loop_matches_oracle(eq, side, rank, rng):
    # the gradients and the field are unchanged bit for bit; the value moves
    # only by the order in which p^2/2 is summed on the Calogero side
    sd = SystemDescriptor(eq, side, rank, 0.7, default_aux(eq))
    for _ in range(20):
        st = sample_calogero_state(eq, rank, rng) if side == "calogero" \
            else painleve_state(eq, rank, rng)
        h, dc, dm = _oracle_evaluate(sd, st)
        g = gauge_factor(sd, st.time)
        assert hamiltonian_gradients(sd, st) == (dc, dm)
        assert canonical_field(sd, st) == (tuple(d / g for d in dm),
                                           tuple(-d / g for d in dc))
        assert abs(hamiltonian(sd, st) - h) <= 1e-15 * abs(h)
