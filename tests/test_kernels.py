"""Kernel/waiting duality, classification, samplers, renewal means."""

import numpy as np
import pytest
from scipy.integrate import quad

from ctqrw import laplace
from ctqrw.errors import (
    BadParametersError,
    DangerousKernelError,
    DomainError,
    InversionError,
    NotADistributionError,
)
from ctqrw.kernels import (
    EmpiricalWaiting,
    ExponentialKernel,
    ExponentialWaiting,
    FractionalKernel,
    HypoexponentialWaiting,
    LaplaceKernel,
    MarkovianKernel,
    MemoryKernel,
    MittagLefflerWaiting,
    _count_circle,
    classify_kernel,
    kernel_from_waiting,
    renewal_mean_count,
    telegraph_h,
    waiting_from_kernel,
    waiting_pdf,
    waiting_survival,
)
from ctqrw.seeding import WAITING_LANE, uniforms
from ctqrw.special import mittag_leffler
from helpers import exponential_witness_mp


def draws(waiting, seed, n):
    """The first `n` waiting times of realization 0 of the run seeded `seed`,
    as every Monte Carlo route draws them."""
    return waiting.from_uniforms(uniforms(seed, 0, np.arange(n), WAITING_LANE, waiting.uniforms))


def test_kernel_laplace_values():
    assert MarkovianKernel(rate=0.5).laplace(7.3) == pytest.approx(0.5)
    assert ExponentialKernel(amplitude=1.0, decay=2.0).laplace(2.0) == pytest.approx(0.25)
    assert FractionalKernel(amplitude=1.0, alpha=0.5).laplace(4.0) == pytest.approx(2.0)


def test_parameter_validation():
    # NaN fails no `x <= 0` test: the non-finite cases used to give NaN
    # decay factors
    invalid = [
        lambda: MarkovianKernel(rate=-1.0),
        lambda: FractionalKernel(amplitude=1.0, alpha=1.5),
        lambda: MarkovianKernel(rate=np.nan),
        lambda: MarkovianKernel(rate=np.inf),
        lambda: ExponentialKernel(amplitude=np.nan, decay=1.0),
        lambda: ExponentialKernel(amplitude=1.0, decay=np.inf),
        lambda: FractionalKernel(amplitude=np.nan, alpha=0.5),
        lambda: FractionalKernel(amplitude=1.0, alpha=np.nan),
        lambda: LaplaceKernel(transform=np.sqrt, scale=np.nan),
        # NaN fails no `total <= 0` test either: an all-NaN cdf was built
        lambda: EmpiricalWaiting(times=np.linspace(0.0, 1.0, 5), pdf=np.full(5, np.nan)),
        lambda: EmpiricalWaiting(times=np.array([0.0, 1.0, np.inf]), pdf=np.ones(3)),
        # malformed tables: lengths that only broadcast, times out of order
        # or negative (quantile drew negative waits), 2-d arrays
        lambda: EmpiricalWaiting(times=np.array([0.0, 1.0, 2.0]), pdf=np.ones(2)),
        lambda: EmpiricalWaiting(times=np.array([0.0, 2.0, 1.0]), pdf=np.ones(3)),
        lambda: EmpiricalWaiting(times=np.array([0.0, 1.0, 1.0]), pdf=np.ones(3)),
        lambda: EmpiricalWaiting(times=np.array([-1.0, 0.0, 1.0]), pdf=np.ones(3)),
        lambda: EmpiricalWaiting(times=np.ones((2, 3)), pdf=np.ones((2, 3))),
        lambda: EmpiricalWaiting(times=np.array([1.0]), pdf=np.ones(1)),
        # no finite time scale T > 0: the config grid t_max_over_T * T was
        # inf, 0 or an OverflowError
        lambda: FractionalKernel(amplitude=1e-8, alpha=0.001),
        lambda: FractionalKernel(amplitude=1e300, alpha=0.001),
        lambda: MarkovianKernel(rate=1e-320),
        lambda: ExponentialKernel(amplitude=1e-300, decay=1e300),
        lambda: LaplaceKernel(transform=np.sqrt, scale=1e-320),
    ]
    for make in invalid:
        with pytest.raises(BadParametersError):
            make()
    with pytest.raises(NotADistributionError) as exc:
        EmpiricalWaiting(times=np.array([0.0, 1.0, 2.0]), pdf=np.array([1.0, -0.1, 1.0]))
    assert exc.value.witness_t == 1.0 and exc.value.value == -0.1
    # a zero density is no negative one: its mass is what is wrong
    with pytest.raises(BadParametersError, match="zero mass") as exc:
        EmpiricalWaiting(times=np.array([0.0, 1.0]), pdf=np.zeros(2))
    assert not isinstance(exc.value, NotADistributionError)
    with pytest.raises(TypeError):  # the cdf is computed, never given
        EmpiricalWaiting(times=np.array([0.0, 1.0]), pdf=np.ones(2), cdf=np.zeros(2))


def test_waiting_from_kernel_variants():
    w = waiting_from_kernel(MarkovianKernel(rate=0.7))
    assert isinstance(w, ExponentialWaiting) and w.rate == 0.7

    w = waiting_from_kernel(ExponentialKernel(amplitude=0.75, decay=2.0))
    assert isinstance(w, HypoexponentialWaiting)
    assert w.r1 == pytest.approx(0.5) and w.r2 == pytest.approx(1.5)
    # r1 r2 = A_eps, r1 + r2 = gamma (the algebraic identity behind Eq. 22)
    assert w.r1 * w.r2 == pytest.approx(0.75, abs=1e-14)
    assert w.r1 + w.r2 == pytest.approx(2.0, abs=1e-14)

    with pytest.raises(NotADistributionError) as exc:
        waiting_from_kernel(ExponentialKernel(amplitude=1.0, decay=1.0))
    assert exc.value.witness_t > 0
    assert exc.value.value < 0


def test_safe_verdict_witness_is_the_waiting_law():
    for kern in (MarkovianKernel(rate=0.5), FractionalKernel(amplitude=1 / np.sqrt(2), alpha=0.5),
                 ExponentialKernel(amplitude=0.75, decay=2.0)):
        verdict, law = kern.verdict(), kern.waiting()
        assert verdict.verdict == "safe"
        assert type(law)(**verdict.witness) == law
        assert repr(law) in verdict.certificate
    # the roots are Python floats: the law's repr reads r1=0.5, not np.float64(0.5)
    assert repr(ExponentialKernel(amplitude=0.75, decay=2.0).waiting()) == "HypoexponentialWaiting(r1=0.5, r2=1.5)"


def test_dangerous_verdict_is_the_refusal_of_the_gate():
    for kern in (ExponentialKernel(amplitude=1.0, decay=1.0), LaplaceKernel(transform=lambda u: 1.0 / (u + 1.0))):
        with pytest.raises(DangerousKernelError) as exc:
            kern.waiting()
        verdict = kern.verdict()
        assert verdict.verdict == "dangerous"
        assert (verdict.certificate, verdict.witness) == (str(exc.value), exc.value.witness)


def test_a_laplace_kernel_is_probed_once(monkeypatch):
    # the CM probe and the 4000-point inversion of the gate run once per
    # kernel; the mean count inverts its 2 times, verdict() and waiting()
    # then reuse the gate
    sizes = []
    invert = laplace.invert

    def counting(fhat, t, **kwargs):
        sizes.append(np.size(t))
        return invert(fhat, t, **kwargs)

    monkeypatch.setattr(laplace, "invert", counting)
    kernel = LaplaceKernel(transform=lambda u: 0.75 / (u + 2.0))
    renewal_mean_count(kernel, [1.0, 2.0])
    assert kernel.verdict().verdict == "safe-conditional"
    assert isinstance(kernel.waiting(), EmpiricalWaiting)
    assert sizes == [4000, 2]


def test_exponential_kernel_slow_rate_does_not_cancel():
    # gamma^2 >> 4 A_eps: (gamma - sqrt(gamma^2 - 4 A_eps)) / 2 gave 7.45e-9
    witness = ExponentialKernel(amplitude=1.0, decay=1e8).verdict().witness
    assert witness["r1"] == pytest.approx(1e-8, rel=1e-12)
    assert witness["r2"] == pytest.approx(1e8, rel=1e-12)


def test_hypoexponential_matches_sinh_form():
    # w(t) = 2 A e^{-gamma t/2} sinh(t sqrt(gamma^2-4A)/2)/sqrt(gamma^2-4A)
    a_eps, gamma = 0.75, 2.0
    w = waiting_from_kernel(ExponentialKernel(amplitude=a_eps, decay=gamma))
    t = np.linspace(0.0, 12.0, 200)
    root = np.sqrt(gamma**2 - 4 * a_eps)
    expected = 2 * a_eps * np.exp(-gamma * t / 2) * np.sinh(t * root / 2) / root
    assert np.max(np.abs(waiting_pdf(w, t) - expected)) < 1e-12


def test_duality_round_trip():
    cases = [
        MarkovianKernel(rate=0.5),
        ExponentialKernel(amplitude=0.75, decay=2.0),
        FractionalKernel(amplitude=1 / np.sqrt(2), alpha=0.5),
        FractionalKernel(amplitude=1.3, alpha=0.8),
    ]
    u = np.geomspace(1e-3, 1e3, 50)
    for kern in cases:
        w = waiting_from_kernel(kern)
        ktilde = kernel_from_waiting(w)
        assert np.max(np.abs(ktilde(u) - kern.laplace(u))) < 1e-9 * np.max(
            np.abs(kern.laplace(u))
        )


def test_classification_builtins():
    assert classify_kernel(MarkovianKernel(rate=1.0)).verdict == "safe"
    assert classify_kernel(FractionalKernel(amplitude=1 / np.sqrt(2), alpha=0.5)).verdict == "safe"
    assert classify_kernel(ExponentialKernel(amplitude=0.75, decay=2.0)).verdict == "safe"
    v = classify_kernel(ExponentialKernel(amplitude=0.25, decay=0.5))
    assert v.verdict == "dangerous"
    assert v.witness["w_value"] < 0


def test_classification_boundary_flip():
    # verdict flips exactly at gamma^2 = 4 A_eps (criterion-4 parameters)
    a_eps = 0.7
    gamma0 = np.sqrt(4 * a_eps)
    safe = classify_kernel(ExponentialKernel(amplitude=a_eps, decay=gamma0 * np.sqrt(1 + 1e-6)))
    dang = classify_kernel(ExponentialKernel(amplitude=a_eps, decay=gamma0 * np.sqrt(1 - 1e-6)))
    assert safe.verdict == "safe"
    assert dang.verdict == "dangerous"
    # the witness is a genuine negative value of the analytically continued w
    assert dang.witness["w_value"] < 0
    assert np.isfinite(dang.witness["log10_abs_w"])


@pytest.mark.parametrize(
    "amplitude, decay",
    [(0.25, 0.5), (1.0, 1.0), (4.0, 1.0), (1.0, 1.9), (1.0, 1.99), (1.0, 1.999), (1.0, 1.99999999),
     (1000.0, 0.1), (0.3, 1.0), (7.5, 5.4), (1e-3, 0.06)],
)
def test_exponential_witness_is_the_mpmath_one(amplitude, decay):
    # the closed form w(t*) = -(2A/Phi) exp(-3 pi gamma / (2 Phi)) against the
    # density evaluated in mpmath with its sine, at the same t* to 1 ulp
    t_ref, w_ref, log_ref = exponential_witness_mp(amplitude, decay)
    witness = classify_kernel(ExponentialKernel(amplitude=amplitude, decay=decay)).witness
    assert abs(witness["t"] - t_ref) <= np.spacing(t_ref)
    assert witness["log10_abs_w"] == pytest.approx(log_ref, rel=1e-15)
    if w_ref == 0.0:  # below float64: the sign is kept on the smallest subnormal
        assert witness["w_value"] == -5e-324
    else:
        assert witness["w_value"] == pytest.approx(w_ref, rel=1e-14)
    with pytest.raises(NotADistributionError) as exc:
        ExponentialKernel(amplitude=amplitude, decay=decay).waiting()
    assert (exc.value.witness_t, exc.value.value) == (witness["t"], witness["w_value"])


def test_underflowing_witness_prints_its_logarithm():
    # w(t*) underflows to the smallest subnormal; the message keeps the
    # magnitude through log10|w| and still names the witness time
    kernel = ExponentialKernel(amplitude=1.0, decay=1.99999999)
    with pytest.raises(NotADistributionError) as exc:
        kernel.waiting()
    log10_w, t = exc.value.witness["log10_abs_w"], exc.value.witness_t
    assert exc.value.value == -5e-324 and log10_w < -20000
    assert f"log10|w(t)| = {log10_w:.6g}," in str(exc.value)
    assert str(exc.value).endswith(f"at t = {t:.6g}")
    assert kernel.verdict().certificate == str(exc.value)


@pytest.mark.parametrize(
    "make",
    [MarkovianKernel, lambda v: ExponentialKernel(v, 1.0), lambda v: ExponentialKernel(1.0, v),
     lambda v: FractionalKernel(v, 0.5), lambda v: FractionalKernel(1.0, v), ExponentialWaiting,
     lambda v: HypoexponentialWaiting(1.0, v), lambda v: MittagLefflerWaiting(v, 0.5),
     lambda v: LaplaceKernel(np.sqrt, v)],
    ids=["markovian-rate", "exponential-amplitude", "exponential-decay", "fractional-amplitude",
         "fractional-alpha", "exponential-waiting-rate", "hypoexponential-r2", "mittag-leffler-amplitude",
         "laplace-scale"],
)
@pytest.mark.parametrize(
    "value",
    [1j, "a", None, np.array([1.0]), np.array(0.5), True, np.True_, 10**400],
    ids=["complex", "str", "none", "array", "0d-array", "bool", "numpy-bool", "int-beyond-float"],
)
def test_parameters_that_are_not_real_numbers_are_refused(make, value):
    # a typed refusal naming the parameter, not a bare TypeError or
    # ValueError, and no bool read as 1
    with pytest.raises(BadParametersError, match=r"^(rate|amplitude|decay|alpha|r2|scale) must be"):
        make(value)


def test_parameters_are_stored_as_python_floats():
    # numpy scalars and ints become floats, so fields, reprs and
    # certificates are plain
    kernel = FractionalKernel(amplitude=1 / np.sqrt(2), alpha=np.float32(0.5))
    assert type(kernel.amplitude) is float and type(kernel.alpha) is float
    assert kernel.verdict().certificate == (
        "dual waiting law MittagLefflerWaiting(amplitude=0.7071067811865475, alpha=0.5)"
    )
    assert repr(MarkovianKernel(np.int64(2))) == "MarkovianKernel(rate=2.0)"
    assert repr(ExponentialKernel(np.float64(0.75), 2)) == "ExponentialKernel(amplitude=0.75, decay=2.0)"
    assert repr(HypoexponentialWaiting(np.float64(0.5), 1)) == "HypoexponentialWaiting(r1=0.5, r2=1.0)"


# safe regular kernels, A/(u + gamma) with gamma^2 > 4A, at scale A/gamma and
# at scale 1: their probe coefficients of high order fall below rounding on
# the small circles, where they have no sign to check
SAFE_REGULAR = [
    pytest.param(lambda u, a=a, g=g: a / (u + g), scale, "safe-conditional", id=f"{a}/(u+{g})@{scale:.3g}")
    for a, g in [(1.0, 3.0), (1.0, 5.0), (1.0, 10.0), (0.5, 2.0), (1.0, 2.5)]
    for scale in (a / g, 1.0)
]


@pytest.mark.parametrize(
    "transform, scale, verdict",
    [
        # a known-safe custom transform: the fractional kernel in disguise
        pytest.param(lambda u: 0.9 * u**0.4, 1.0, "safe-conditional", id="fractional"),
        # a dangerous custom transform: the exponential kernel in disguise
        pytest.param(lambda u: 1.0 / (u + 1.0), 1.0, "dangerous", id="1/(u+1)"),
        # its density is -0.032 at t ~ 5.85
        pytest.param(lambda u: 0.6 / (u + 1.0) + 0.4 / (u + 3.0), 1.0, "dangerous", id="mixture"),
        pytest.param(lambda u: 0.75 / (u + 2.0), 1.0, "safe-conditional", id="0.75/(u+2)"),
    ]
    + SAFE_REGULAR,
)
def test_classification_custom_kernels(transform, scale, verdict):
    got = classify_kernel(LaplaceKernel(transform=transform, scale=scale))
    assert got.verdict == verdict
    if verdict == "dangerous":
        assert got.witness["order"] == 3
    elif got.witness["undecided"]:
        assert "undecided" in got.certificate


def test_waiting_laws_name_their_dual_kernels():
    for kern in (
        MarkovianKernel(rate=0.7),
        FractionalKernel(amplitude=1.3, alpha=0.5),
        FractionalKernel(amplitude=1.3, alpha=0.9),
    ):
        assert kern.waiting().kernel == kern
    # alpha = 1 is exponential waiting, whose dual is Markovian
    assert FractionalKernel(amplitude=1.3, alpha=1.0).waiting().kernel == MarkovianKernel(rate=1.3)
    # r1 r2 and r1 + r2 give back A_eps and gamma to rounding
    dual = ExponentialKernel(amplitude=0.75, decay=2.0).waiting().kernel
    assert isinstance(dual, ExponentialKernel)
    assert (dual.amplitude, dual.decay) == (pytest.approx(0.75, rel=1e-15), pytest.approx(2.0, rel=1e-15))
    custom = LaplaceKernel(transform=lambda u: 0.75 / (u + 2.0))
    assert custom.waiting().kernel is custom
    assert EmpiricalWaiting(times=np.array([0.0, 1.0]), pdf=np.ones(2)).kernel is None
    # each law's closed wtilde gives back the transform of the kernel it names
    u = np.geomspace(1e-3, 1e3, 50)
    for law in (
        ExponentialWaiting(rate=0.7),
        HypoexponentialWaiting(r1=0.5, r2=1.5),
        MittagLefflerWaiting(amplitude=1.3, alpha=0.5),
        MittagLefflerWaiting(amplitude=1.3, alpha=1.0),
    ):
        expected = law.kernel.laplace(u)
        assert np.max(np.abs(kernel_from_waiting(law)(u) - expected)) < 1e-9 * np.max(np.abs(expected))
    assert MittagLefflerWaiting(amplitude=1.3, alpha=0.5).laplace(0.0) == 1.0


EXP_SAFE = ExponentialKernel(amplitude=0.75, decay=2.0)
_LAPLACE_WAITING = LaplaceKernel(transform=lambda u: 0.75 / (u + 2.0)).waiting()
# a known miss: a LaplaceKernel names no poles, and at complex rates 1 - z
# the two roots of its exponential transform leave the Talbot contours past
# ~15 T; counting unnamed poles (argument principle) is not done
_POLES_MISSED = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a LaplaceKernel names no poles: off by up to 7e-7 at t ~ 20 T while the check passes",
)


@pytest.mark.parametrize(
    "talbot, closed",
    [
        pytest.param(MarkovianKernel(rate=0.7), MarkovianKernel(rate=0.7), id="markovian"),
        pytest.param(ExponentialKernel(0.01, 5.0), ExponentialKernel(0.01, 5.0), id="exponential-slow"),
        pytest.param(EXP_SAFE, EXP_SAFE, id="exponential"),
        pytest.param(_LAPLACE_WAITING.kernel, EXP_SAFE, marks=_POLES_MISSED, id="laplace"),
    ],
)
def test_talbot_count_law_matches_the_closed_one(talbot, closed):
    # time by time up to 22 T: the generic Talbot table is within 1e-9 of
    # the closed one, or refuses
    for t in np.linspace(0.0, 22.0 * closed.time_scale, 45)[1:]:
        grid = np.array([0.0, t])
        try:
            got = MemoryKernel.count_table(talbot, grid, 64)
        except InversionError:
            continue
        assert np.max(np.abs(got - closed.count_table(grid, 64))) < 1e-9, t


def test_laplace_kernel_waiting_count_law_is_the_exponential_one():
    grid = np.linspace(0.0, 20.0, 201)
    got = _LAPLACE_WAITING.renewal_table(grid, 64)
    assert np.max(np.abs(got - EXP_SAFE.count_table(grid, 64))) < 1e-9


# kernel, and whether its contours reach |wtilde| > 1 (the v = 1/w branch)
_COUNT_TRANSFORM_CASES = {
    "alpha0.3": (FractionalKernel(1.0, 0.3), False),
    "alpha0.5": (FractionalKernel(1.0, 0.5), False),
    "alpha0.9": (FractionalKernel(1.0, 0.9), True),
    "alpha0.99": (FractionalKernel(1.0, 0.99), True),
    "laplace": (_LAPLACE_WAITING.kernel, True),
}


@pytest.mark.parametrize(
    "kernel, outside", _COUNT_TRANSFORM_CASES.values(), ids=_COUNT_TRANSFORM_CASES.keys()
)
@pytest.mark.parametrize("rows", [1, 33, 64])
def test_closed_count_transforms_are_the_fft_over_the_circle(kernel, outside, rows):
    # on the 32- and 40-node contours of short and long times, row n is the
    # FFT of 1/(u + (1 - z_k) Ktilde(u)) over the count circle, over its
    # scale, to 1e-12 of that FFT's size max_k |f_k| / rho^n
    t = np.array([0.05, 1.0, 10.0, 50.0]) * kernel.time_scale
    u = np.concatenate([laplace._contour(t, m)[1] for m in (laplace.NODES, laplace.CHECK_NODES)], axis=1)
    z, scale = _count_circle(rows)
    ktilde = kernel.laplace(u)
    on_circle = 1.0 / (u + (1.0 - z)[:, None, None] * ktilde)
    fft = np.fft.fft(on_circle, axis=0)[:rows] / scale[:, None, None]
    size = np.max(np.abs(on_circle), axis=0) * z.size / scale[:, None, None]
    assert np.max(np.abs(kernel._count_laplace(u, rows) - fft) / size) < 1e-12
    assert np.any(np.abs(ktilde / (u + ktilde)) > 1.0) == outside


_RENEWAL_LAWS = {
    "talbot": MittagLefflerWaiting(amplitude=1.0, alpha=0.5),
    "poisson": ExponentialWaiting(rate=1.0),
    "hypoexponential": HypoexponentialWaiting(r1=0.5, r2=1.5),
}


@pytest.mark.parametrize("rows", [0, -1, 2.5, True, np.float64(3.0)])
@pytest.mark.parametrize("law", _RENEWAL_LAWS.values(), ids=_RENEWAL_LAWS.keys())
def test_bad_row_counts_are_bad_parameters(law, rows):
    from ctqrw import engine
    from ctqrw.models import (
        Depolarizing,
        DeltaPhase,
        GaussianJumps,
        SpectrumModel,
        WignerWalkConfig,
        intrinsic_decoherence,
        qubit_kraus,
        wigner_ctrw,
    )

    grid = np.linspace(0.0, 2.0, 5)
    for table in (law.renewal_table, law.kernel.count_table):
        with pytest.raises(BadParametersError, match="rows"):
            table(grid, rows)
    assert law.renewal_table(grid, np.int64(3)).shape == (3, 5)
    # realization and walker counts follow the same rule; a float reached
    # bincount's bare TypeError, and wigner_ctrw truncated it
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    spectrum = SpectrumModel(levels=np.array([0.0, 1.0]), phase=DeltaPhase(tau_b=0.5))
    monte_carlo = [
        ("n", lambda count: engine.event_counts(law, grid, count, 1)),
        ("n_realizations", lambda count: engine.ensemble_average(
            rho0, qubit_kraus(Depolarizing()), law, grid, count, 1
        )),
        ("n_walkers", lambda count: wigner_ctrw(
            WignerWalkConfig(jumps=GaussianJumps(), kernel=law.kernel, n_walkers=count), grid, 1
        )),
        ("n_realizations", lambda count: intrinsic_decoherence(
            spectrum, law.kernel, rho0, grid, route="stochastic", n_realizations=count
        )),
    ]
    for name, call in monte_carlo:
        with pytest.raises(BadParametersError, match=f"^{name} must be an integer"):
            call(rows)
        call(np.int64(3))


def test_waiting_pdf_and_survival_consistency():
    # int_0^T pdf + survival(T) = 1 (numeric mass balance)
    cases = [
        ExponentialWaiting(rate=0.5),
        HypoexponentialWaiting(r1=0.5, r2=1.5),
    ]
    for w in cases:
        total, _ = quad(lambda s: waiting_pdf(w, s), 0.0, 60.0, limit=200)
        assert total + waiting_survival(w, 60.0) == pytest.approx(1.0, abs=1e-6)
        t = np.linspace(0.0, 30.0, 500)
        assert np.all(waiting_pdf(w, t) >= -1e-14)


def test_mittag_leffler_survival_closed_form():
    from scipy.special import erfc

    w = MittagLefflerWaiting(amplitude=1.0, alpha=0.5)
    assert waiting_survival(w, 1.0) == pytest.approx(np.exp(1) * erfc(1.0), rel=1e-10)
    # heavy tail: pdf ~ alpha A^{-1}... slope -(1+alpha) on a log-log grid
    t = np.geomspace(1e3, 1e6, 40)
    slope = np.polyfit(np.log(t), np.log(waiting_pdf(w, t)), 1)[0]
    assert slope == pytest.approx(-1.5, abs=0.01)


def test_mittag_leffler_pdf_is_minus_survival_derivative():
    w = MittagLefflerWaiting(amplitude=0.8, alpha=0.6)
    t = np.linspace(0.4, 8.0, 25)
    eps = 1e-5
    num = -(waiting_survival(w, t + eps) - waiting_survival(w, t - eps)) / (2 * eps)
    assert np.max(np.abs(num - waiting_pdf(w, t))) < 1e-7


def test_exponential_sampler_inverse_cdf():
    w = ExponentialWaiting(rate=1.0)
    assert w.quantile(0.5) == pytest.approx(np.log(2.0), abs=1e-14)


def test_sampler_means(rng):
    n = 100_000
    w = ExponentialWaiting(rate=0.5)
    taus = draws(w, 11, n)
    mean, se = taus.mean(), taus.std(ddof=1) / np.sqrt(n)
    assert abs(mean - 2.0) < 3 * se

    w = HypoexponentialWaiting(r1=0.5, r2=1.5)
    taus = draws(w, 12, n)
    mean, se = taus.mean(), taus.std(ddof=1) / np.sqrt(n)
    assert abs(mean - (2.0 + 2.0 / 3.0)) < 3 * se


def test_ml_sampler_alpha_one_is_exponential():
    # alpha = 1 reduces to the exponential law (KS test)
    n = 100_000
    w = MittagLefflerWaiting(amplitude=0.8, alpha=1.0)
    taus = np.sort(draws(w, 13, n))
    emp = np.arange(1, n + 1) / n
    ks = np.max(np.abs((1.0 - np.exp(-0.8 * taus)) - emp))
    assert ks < 1.63 / np.sqrt(n)


def test_ml_sampler_median_and_survival():
    # no mean exists for alpha < 1; check the median against the survival
    w = MittagLefflerWaiting(amplitude=1 / np.sqrt(2), alpha=0.5)
    n = 100_000
    median = np.median(draws(w, 14, n))
    surv = waiting_survival(w, median)
    assert abs(surv - 0.5) < 3.0 * 0.5 / np.sqrt(n) * 2.0


def test_empirical_waiting_round_trip():
    t = np.linspace(1e-4, 40.0, 4000)
    w = EmpiricalWaiting(times=t, pdf=0.5 * np.exp(-0.5 * t))
    assert waiting_survival(w, 2.0) == pytest.approx(np.exp(-1.0), abs=1e-3)
    assert abs(np.mean(draws(w, 15, 20_000)) - 2.0) < 0.1


def test_renewal_mean_count_closed_forms():
    assert renewal_mean_count(MarkovianKernel(rate=0.5), 2.0) == pytest.approx(1.0)
    from scipy.special import gamma as G

    val = renewal_mean_count(FractionalKernel(amplitude=1.0, alpha=0.5), 4.0)
    assert val == pytest.approx(2.0 / G(1.5), rel=1e-12)
    kern = ExponentialKernel(amplitude=1.0, decay=2.0)
    t = np.array([50.0, 100.0])
    counts = renewal_mean_count(kern, t)
    slope = (counts[1] - counts[0]) / 50.0
    assert slope == pytest.approx(0.5, rel=1e-10)
    with pytest.raises(DangerousKernelError):
        renewal_mean_count(ExponentialKernel(amplitude=1.0, decay=1.0), 1.0)


def test_renewal_mean_count_of_a_laplace_kernel_starts_at_zero():
    # Ktilde = sqrt(u) is the fractional kernel A = 1, alpha = 1/2; N(0) = 0
    # exactly, where u fhat(u) at any finite u would read Ktilde(u)/u != 0
    t = np.array([0.0, 0.5, 4.0])
    counts = renewal_mean_count(LaplaceKernel(transform=np.sqrt), t)
    assert counts[0] == 0.0
    exact = FractionalKernel(amplitude=1.0, alpha=0.5).mean_count(t)
    assert np.max(np.abs(counts - exact)) < 1e-9


def test_renewal_mean_count_of_a_laplace_kernel_at_t_zero_alone():
    # no time left to invert: an IndexError from the empty inversion before
    assert renewal_mean_count(LaplaceKernel(transform=np.sqrt), 0.0) == 0.0
    assert np.array_equal(renewal_mean_count(LaplaceKernel(transform=np.sqrt), [0.0, 0.0]), [0.0, 0.0])


def test_renewal_mean_matches_quadrature_of_kernel():
    # independent oracle: <N(t)> = int_0^t K(s) (t - s) ds for the
    # exponential kernel
    kern = ExponentialKernel(amplitude=0.75, decay=2.0)
    t_end = 3.7
    val, _ = quad(lambda s: 0.75 * np.exp(-2.0 * s) * (t_end - s), 0.0, t_end)
    assert renewal_mean_count(kern, t_end) == pytest.approx(val, rel=1e-10)


def test_talbot_decay_factor_batches_rates_in_one_inversion(monkeypatch):
    # conjugate and repeated rates are inverted once, h(conj lam) = conj
    # h(lam); the family agrees with one-rate calls, which windowing and
    # redo decisions shared by the family move by rounding only
    from ctqrw import laplace

    kernel = FractionalKernel(amplitude=1.0, alpha=0.6)
    t = np.linspace(0.0, 8.0, 81)
    lams = np.array([0.7, 1.0 + 2.0j, 1.0 - 2.0j, 0.3 + 0.1j, 1.0 + 2.0j, 0.7])
    singles = np.array([kernel.talbot_decay_factor(lam, t) for lam in lams])
    families = []
    invert = laplace.invert

    def counted(fhat, times, poles=None):
        out = invert(fhat, times, poles=poles)
        families.append(out.shape[:-1])
        return out

    monkeypatch.setattr(laplace, "invert", counted)
    batch = kernel.talbot_decay_factor(lams, t)
    # Re h and Im h of the three distinct rates up to conjugation
    assert families == [(2, 3)]
    assert batch.shape == (lams.size, t.size)
    assert np.max(np.abs(batch - singles)) < 1e-10
    assert np.array_equal(batch[2], np.conj(batch[1])) and np.array_equal(batch[4], batch[1])
    assert np.all(batch[:, 0] == 1.0)
    assert np.array_equal(kernel.talbot_decay_factor(lams.reshape(2, 3), t), batch.reshape(2, 3, -1))


def test_talbot_decay_factor_of_no_rates_skips_the_inversion(monkeypatch):
    from ctqrw import laplace

    def refuse(fhat, t, poles=None):
        raise AssertionError("laplace.invert called for an empty rate family")

    monkeypatch.setattr(laplace, "invert", refuse)
    h = FractionalKernel(1.0, 0.5).talbot_decay_factor(np.array([]), np.linspace(0, 1, 5))
    assert h.shape == (0, 5)


def test_fractional_decay_factor_splits_real_and_complex_rates():
    # real rates keep the Mittag-Leffler values bit for bit; complex rates
    # go to the Talbot factors
    kernel = FractionalKernel(amplitude=1 / np.sqrt(2), alpha=0.5)
    t = np.linspace(0.0, 20.0, 101)
    lams = np.array([0.0, 1.0, 1.0 + 0.5j, 2.0 + 1e-14j])
    got = kernel.decay_factor(lams, t)
    for row, lam in zip(got, lams):
        if lam.imag == 0.5:
            assert np.array_equal(row, kernel.talbot_decay_factor(lam, t))
        else:
            ml = mittag_leffler(0.5, lam.real * kernel.amplitude * t**0.5)
            assert np.array_equal(row, ml)
    assert kernel.decay_factor(np.array([0.5, 2.0]), t).dtype == float


@pytest.mark.parametrize(
    "kernel",
    [FractionalKernel(amplitude=1.0, alpha=a) for a in (0.8, 0.9, 0.97, 0.99)]
    + [MarkovianKernel(rate=1.0)],
    ids=["a0.8", "a0.9", "a0.97", "a0.99", "markovian"],
)
def test_decay_factors_keep_their_poles_at_complex_rates(kernel):
    # at lam = 1 - e^{-i phi} the root of u^alpha = -lam A (alpha = 1 for the
    # Markovian kernel) sits above the Talbot contours of long times; the
    # pole is inverted exactly, against E_alpha(-lam A t^alpha) at 40 digits
    from helpers import mittag_leffler_series

    alpha = getattr(kernel, "alpha", 1.0)
    t = np.array([10.0, 100.0, 400.0])
    for phi in (0.05, 0.1, 0.3):
        lam = 1.0 - np.exp(-1j * phi)
        expected = [mittag_leffler_series(alpha, lam * s**alpha) for s in t]
        for got in (kernel.talbot_decay_factor(lam, t), kernel.decay_factor(np.array([lam]), t)[0]):
            assert np.max(np.abs(got - expected)) < 1e-10, phi
    # real rates put their poles inside every contour: the plain Talbot sum,
    # bit for bit that of a kernel naming none
    real = np.array([0.5, 2.0])
    plain = LaplaceKernel(transform=kernel.laplace).talbot_decay_factor(real, t)
    assert np.array_equal(kernel.talbot_decay_factor(real, t), plain)


@pytest.mark.parametrize("times", [[100.0], [120.0], [150.0], [300.0], [10.0, 50.0, 100.0, 300.0]])
def test_exponential_decay_factor_keeps_its_poles_at_complex_rates(times):
    # at lam = 1 - e^{-0.3i} the roots of u^2 + 2u + lam sit near the
    # 32- and 40-node contours of t = 100 and outside those of later times;
    # unnamed, t = 100 was off by 8e-8, t = 120 and 150 raised and t = 300
    # came out ~0 against |h| = 0.034; in one call t = 300's contour spoiled
    # t = 100 too
    kernel = ExponentialKernel(amplitude=1.0, decay=2.0)
    lam = 1.0 - np.exp(-0.3j)
    t = np.array(times)
    assert np.max(np.abs(kernel.talbot_decay_factor(lam, t) - telegraph_h(t, lam, 2.0, 1.0))) < 1e-10


def test_exponential_decay_factor_near_coalescing_poles():
    # Phi ~ 3e-6: both roots sit near -gamma/2, inside every contour, with
    # residues ~ 1/Phi that the inversion must leave out; at Phi = 0 the
    # double root names none
    kernel = ExponentialKernel(amplitude=1.0, decay=2.0)
    t = np.linspace(0.0, 40.0, 81)
    for lam in (1.0 + 1e-12j, 1.0):
        got = kernel.talbot_decay_factor(lam, t)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - telegraph_h(t, lam, 2.0, 1.0))) < 1e-10
    pole, residue = kernel.poles(np.array([1.0 + 1e-12j, 1.0]))
    assert np.all(np.abs(residue[0]) > 1e5) and not np.any(residue[1])
    # the residues sum to lim u h(u) = 1 as u -> infinity; the poles are roots
    lam = np.array([0.3, 1.0 - np.exp(-0.3j), 5.0 + 2.0j])
    pole, residue = kernel.poles(lam)
    assert np.allclose(residue.sum(axis=-1), 1.0, rtol=0, atol=1e-14)
    assert np.allclose(pole**2 + 2.0 * pole + lam[:, None], 0.0, rtol=0, atol=1e-14)


def test_kernel_time_scale_convention():
    assert MarkovianKernel(rate=0.5).time_scale == pytest.approx(2.0)
    assert ExponentialKernel(amplitude=1.0, decay=2.0).time_scale == pytest.approx(2.0)
    assert FractionalKernel(amplitude=1 / np.sqrt(2), alpha=0.5).time_scale == pytest.approx(2.0)


def _time_calls():
    kernels = [MarkovianKernel(rate=1.0), ExponentialKernel(amplitude=0.75, decay=2.0),
               FractionalKernel(amplitude=1.0, alpha=0.5), LaplaceKernel(transform=np.sqrt)]
    laws = [ExponentialWaiting(rate=1.0), HypoexponentialWaiting(r1=0.5, r2=1.5),
            MittagLefflerWaiting(amplitude=1.0, alpha=0.5)]
    for kernel in kernels:
        yield pytest.param(lambda t, k=kernel: renewal_mean_count(k, t), id=type(kernel).__name__)
    for law in laws:
        for f in (waiting_pdf, waiting_survival):
            yield pytest.param(lambda t, f=f, w=law: f(w, t), id=f"{f.__name__}-{type(law).__name__}")


@pytest.mark.parametrize("t", [-1.0, np.nan, np.inf, [0.0, -1.0]], ids=["-1", "nan", "inf", "[0,-1]"])
@pytest.mark.parametrize("call", _time_calls())
def test_times_that_are_not_finite_and_nonnegative_are_domain_errors(call, t):
    # these gave -1.0, 0.823, 0.0 or NaN, or raised from the Mittag-Leffler
    # evaluation, depending on the variant
    with pytest.raises(DomainError, match="finite and >= 0"):
        call(t)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.1, max_value=0.999),
)
def test_duality_round_trip_property(amplitude, alpha):
    # kernel -> waiting -> kernel is the identity on the transform side
    kern = FractionalKernel(amplitude=amplitude, alpha=alpha)
    w = waiting_from_kernel(kern)
    u = np.geomspace(1e-2, 1e2, 11)
    expected = kern.laplace(u)
    got = kernel_from_waiting(w)(u)
    assert np.max(np.abs(got - expected)) < 1e-9 * np.max(np.abs(expected))


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=2.0),
    st.floats(min_value=0.05, max_value=2.0),
)
def test_exponential_safety_boundary_property(amplitude, decay):
    kern = ExponentialKernel(amplitude=amplitude, decay=decay)
    verdict = classify_kernel(kern)
    assert verdict.is_safe == (decay**2 >= 4 * amplitude)
