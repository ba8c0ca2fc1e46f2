"""Floating checks: tau expansion, completed L-values, path integrals."""

import math

import pytest

from heckeperiods import numeric
from heckeperiods.characters import CharacterError, kronecker_character
from heckeperiods.numeric import (
    NumericCheck,
    QExpansion,
    assembled_twisted_lambda,
    incomplete_gamma_integer,
    lambda_delta,
    numeric_twisted_period,
    petersson_delta_inverse,
    tau_coefficients,
    verify_trace_numeric,
    zeta_value,
)
from heckeperiods.periods import ContextError, PeriodContext
from heckeperiods.traces import TraceQuery, trace_closed_form

TAU_FIRST_TEN = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)


def brute_force_tau(m):
    # direct O(m^2) convolution of the 24th power of the Euler product
    series = [0] * m
    series[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 < m or k * (3 * k + 1) // 2 < m:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g < m:
                series[g] = -1 if k % 2 else 1
        k += 1
    power = [1] + [0] * (m - 1)
    for _ in range(24):
        nxt = [0] * m
        for i, x in enumerate(power):
            if x:
                for j, y in enumerate(series):
                    if y and i + j < m:
                        nxt[i + j] += x * y
        power = nxt
    return tuple(power)


def test_tau_against_brute_force():
    m = 40
    assert tau_coefficients(m).coefficients == brute_force_tau(m)


def test_tau_first_values():
    assert tau_coefficients(10).coefficients == TAU_FIRST_TEN


def test_tau_multiplicativity_spot_checks():
    tau = tau_coefficients(40)
    assert tau.a(6) == tau.a(2) * tau.a(3)
    assert tau.a(10) == tau.a(2) * tau.a(5)
    assert tau.a(35) == tau.a(5) * tau.a(7)
    # Hecke recursion at p = 2: tau(4) = tau(2)^2 - 2^11
    assert tau.a(4) == tau.a(2) ** 2 - 2**11


def test_tau_at_petersson_size():
    # tau(1..10^4) is what the Petersson bit-identity check sums over
    tau_coefficients.cache_clear()
    m = 10**4
    tau = tau_coefficients(m)
    assert tau.truncation() == m
    # Ramanujan: tau(n) = sigma_11(n) mod 691
    sigma = [0] * (m + 1)
    for d in range(1, m + 1):
        power = pow(d, 11, 691)
        for k in range(d, m + 1, d):
            sigma[k] += power
    for n in range(1, m + 1):
        assert (tau.a(n) - sigma[n]) % 691 == 0, n
    # Hecke relation at p^2 and multiplicativity at the largest coprime pair
    for p in range(2, 98):
        if all(p % q for q in range(2, p)):
            assert tau.a(p * p) == tau.a(p) ** 2 - p**11, p
    assert tau.a(97 * 103) == tau.a(97) * tau.a(103)
    # a shorter request agrees with the prefix
    assert tau_coefficients(40).coefficients == brute_force_tau(40)


def test_qexpansion_validation():
    with pytest.raises(ValueError):
        QExpansion((2, 3), 12, 1)
    q = tau_coefficients(5)
    assert q.weight == 12 and q.level == 1 and q.truncation() == 5


@pytest.mark.parametrize("m", [0, -3])
def test_tau_rejects_empty_prefix(m):
    with pytest.raises(ContextError):
        tau_coefficients(m)


def test_incomplete_gamma():
    assert incomplete_gamma_integer(1, 2.0) == pytest.approx(math.exp(-2))
    # Gamma(3, 0) = 2! = Gamma(3)
    assert incomplete_gamma_integer(3, 0.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        incomplete_gamma_integer(0, 1.0)


def test_lambda_delta_reference():
    assert abs(lambda_delta(2) - 0.003707710464948) < 1e-12


def test_lambda_delta_symmetry():
    for s in range(1, 12):
        assert abs(lambda_delta(s) - lambda_delta(12 - s)) < 1e-12
    with pytest.raises(ValueError):
        lambda_delta(0)


def test_petersson_reference():
    value = petersson_delta_inverse()
    assert abs(value - 965845.709168185) / 965845.709168185 < 1e-6
    assert abs(value - 965845.709) < 1e-3


def test_petersson_is_bit_identical_to_the_sum_over_ten_thousand_terms():
    # the weighted tau sum falls like n^-9, so TRUNCATION terms already fix
    # every bit of 1/||Delta||^2 = constant / sum_n tau(n)^2 / n^20
    tau = tau_coefficients(10**4)
    weighted = 0.0
    for n in range(1, 10**4 + 1):
        weighted += float(tau.a(n)) ** 2 / float(n) ** 20
    constant = (
        2.0 / 245.0 * 4.0**20 * math.pi**29 / math.factorial(20)
        * zeta_value(9) / zeta_value(18)
    )
    assert petersson_delta_inverse() == constant / weighted


def test_split_sums_stop_before_the_fixed_length(monkeypatch):
    # every split sum here stops at its own 1e-20 test before term
    # TRUNCATION, measured by the largest tau index it reads: 9 for Lambda
    # at height 1, 18 at height 1/2, 241 for r_{m, h/23}; at d = 29 the sum
    # reads past TRUNCATION and still stops before its length 16 d
    largest = 0
    read = QExpansion.a

    def recording(self, n):
        nonlocal largest
        largest = max(largest, n)
        return read(self, n)

    monkeypatch.setattr(QExpansion, "a", recording)
    sums = [((s, y), lambda s=s, y=y: numeric._split_lambda(s, y)) for s in range(1, 12) for y in (1.0, 0.5)]
    sums += [
        ((m, h, d), lambda m=m, h=h, d=d: numeric_twisted_period(m, h, d))
        for d in range(1, 24)
        for h in range(d)
        if math.gcd(h, d) == 1
        for m in range(11)
    ]
    for label, split_sum in sums:
        largest = 0
        split_sum()
        assert 0 < largest < numeric.TRUNCATION, label
    largest = 0
    numeric_twisted_period(10, 1, 29)
    assert numeric.TRUNCATION < largest < 16 * 29


def test_twisted_period_requires_coprime():
    with pytest.raises(ValueError):
        numeric_twisted_period(1, 3, 3)


def test_assembled_twisted_lambda_references(chi3):
    l2 = assembled_twisted_lambda(1, chi3)
    assert abs(l2 - (-228.22304046813742)) < 1e-8
    l4 = assembled_twisted_lambda(3, chi3)
    assert abs(l4 - (-14.263940029258589)) < 1e-8
    l6 = assembled_twisted_lambda(5, chi3)
    assert abs(l6) < 1e-8


def test_verify_trace_reference(chi3):
    ctx = PeriodContext(1, 10, 1, chi3)
    report = verify_trace_numeric(TraceQuery(ctx, 1))
    assert isinstance(report, NumericCheck)
    assert report.passed and report.rel_err < 1e-5
    assert abs(report.computed - (-817284.10841880)) < 1e-3
    data = report.to_json()
    assert set(data) == {"expected", "computed", "abs_err", "rel_err", "pass"}


def test_verify_trace_central_zero(chi3):
    ctx = PeriodContext(1, 10, 1, chi3)
    report = verify_trace_numeric(TraceQuery(ctx, 5))
    assert report.passed and report.abs_err < 1e-5


def test_verify_trace_central_zero_at_every_small_negative_discriminant():
    # the root number forces Lambda(Delta, chi, 6) = 0 at odd chi; the
    # rounding of the numeric zero grows with D, so the error is measured
    # against the magnitude it scales with, not against 1
    swept = 0
    for d in range(-3, -80, -1):
        try:
            chi = kronecker_character(d)
        except CharacterError:
            continue
        query = TraceQuery(PeriodContext(1, 10, 1, chi), 5)
        assert trace_closed_form(query).is_zero(), d
        report = verify_trace_numeric(query)
        assert report.passed and report.rel_err < 1e-12, (d, report)
        swept += 1
    assert swept == 25


def test_verify_trace_level_restriction(chi3):
    ctx = PeriodContext(2, 10, 1, chi3)
    with pytest.raises(ValueError):
        verify_trace_numeric(TraceQuery(ctx, 1))


def test_zeta_value():
    assert zeta_value(2) == pytest.approx(math.pi**2 / 6, rel=1e-9)


def test_lambda_is_the_period_at_the_cusp_zero():
    # Lambda(Delta, s) = (-i)^s r_{s-1}: one integral serves both
    for s in range(1, 12):
        assert lambda_delta(s) == ((-1j) ** s * numeric_twisted_period(s - 1, 0, 1)).real, s


def test_lambda_and_periods_match_the_pinned_values():
    for s, value in enumerate(LAMBDA_LITERALS, start=1):
        assert abs(lambda_delta(s) - value) <= 1e-15 * abs(value), s
    for (d, h), values in PERIOD_LITERALS.items():
        for m, value in enumerate(values):
            assert abs(numeric_twisted_period(m, h, d) - value) <= 1e-15 * abs(value), (m, h, d)


# Lambda(Delta, s) for s = 1..11, and r_{m, h/d} for m = 0..10, d in {3, 4, 5, 7, 8}
# and every unit h, at the default truncation, as given by the earlier code,
# which summed the L-values in a loop of their own
LAMBDA_LITERALS = (
    0.005958964989578241, 0.0037077104649480665, 0.0025417560541966438, 0.0019310992004937847,
    0.0016339860348406998, 0.0015448793603950275, 0.0016339860348406998, 0.0019310992004937847,
    0.0025417560541966438, 0.0037077104649480665, 0.005958964989578241,
)
PERIOD_LITERALS = {
    (3, 1): (
        (311.44767905563765-175.18761172861062j),
        (12.00927419596678+21.960772308259013j),
        (-1.7302648836424313+0.8921563750230219j),
        (-0.07016327095127414-0.15250536325179864j),
        (0.013732260981289136-0.00562817412000685j),
        (0.0007438308031531602+0j),
        (0.001525806775698793+0.000625352680000761j),
        (-0.0008662132216206684+0.0018827822623678847j),
        (-0.002373477206642567-0.0012238084705391246j),
        (0.001830403017217921-0.003347168466431796j),
        (0.0052743937925390375+0.002966817587573212j),
    ),
    (3, 2): (
        (-311.4476790556375-175.18761172861088j),
        (12.009274195966798-21.960772308259013j),
        (1.7302648836424306+0.8921563750230231j),
        (-0.07016327095127427+0.15250536325179861j),
        (-0.013732260981289131-0.005628174120006865j),
        (0.0007438308031531632+0j),
        (-0.0015258067756987925+0.0006253526800007628j),
        (-0.00086621322162067-0.0018827822623678843j),
        (0.002373477206642566-0.0012238084705391264j),
        (0.0018304030172179237+0.0033471684664317957j),
        (-0.005274393792539035+0.0029668175875732163j),
    ),
    (4, 1): (
        (6306.8155008766635+71.96046121414723j),
        (-5.509657750912843+247.05868846791387j),
        (-10.706013967537544-0.46005784580959336j),
        (0.042484182410863304-0.5147056009748203j),
        (0.0260698392066661+0.004697709850167016j),
        (-0.0008207171602098585+0j),
        (0.0016293649504166311-0.0002936068656354385j),
        (0.00016595383754243478+0.002010568753807892j),
        (-0.0026137729412933457+0.00011231881001210775j),
        (-8.407070542774724e-05-0.003769816413389799j),
        (0.006014647961498893-6.862684365668033e-05j),
    ),
    (4, 3): (
        (-6306.8155008766635+71.96046121414568j),
        (-5.509657750912783-247.05868846791387j),
        (10.706013967537544-0.46005784580959075j),
        (0.04248418241086317+0.5147056009748203j),
        (-0.026069839206666102+0.004697709850167008j),
        (-0.0008207171602098575+0j),
        (-0.0016293649504166314-0.000293606865635438j),
        (0.00016595383754243427-0.002010568753807892j),
        (0.0026137729412933457+0.00011231881001210712j),
        (-8.407070542774633e-05+0.003769816413389799j),
        (-0.006014647961498893-6.862684365667885e-05j),
    ),
    (5, 1): (
        (55499.97640771464+18663.62732148379j),
        (-479.72211850730565+1383.5286554203176j),
        (-37.996616844787795-13.91103088461823j),
        (0.4639118231330228-1.152940546183598j),
        (0.0373737214866765+0.018888878562758494j),
        (-0.0016042027278341964+0j),
        (0.00149494885946706-0.0007555551425103398j),
        (0.0007422589170128365+0.0018447048738937568j),
        (-0.0024317834780664188+0.0008903059766155667j),
        (-0.0012280886233787024-0.003541833357876013j),
        (0.005683197584149979-0.0019111554377199398j),
    ),
    (5, 2): (
        (-35318.166804909306-47745.748138691444j),
        (1202.095348393138-909.1759735619231j),
        (26.78450039878483+33.52423730122125j),
        (-1.0310370363340378+0.9552935954092667j),
        (-0.04805192762572694-0.03381697497706313j),
        (0.0019551993185159466-0.005270585353982161j),
        (0.0019220771050290778+0.0013526789990825246j),
        (-0.0016496592581344597+0.001528469752654827j),
        (-0.0017142080255222296-0.0021455511872781594j),
        (0.003077364091886433-0.002327490492318524j),
        (0.0036165802808227144+0.0048891646094020025j),
    ),
    (5, 3): (
        (35318.16680490932-47745.74813869142j),
        (1202.0953483931378+909.1759735619233j),
        (-26.784500398784836+33.52423730122124j),
        (-1.0310370363340373-0.955293595409267j),
        (0.048051927625726944-0.03381697497706312j),
        (0.0019551993185159466+0.005270585353982161j),
        (-0.0019220771050290776+0.0013526789990825252j),
        (-0.0016496592581344604-0.0015284697526548269j),
        (0.001714208025522229-0.00214555118727816j),
        (0.0030773640918864333+0.0023274904923185234j),
        (-0.0036165802808227126+0.004889164609402004j),
    ),
    (5, 4): (
        (-55499.976407714654+18663.627321483775j),
        (-479.7221185073054-1383.5286554203176j),
        (37.9966168447878-13.911030884618222j),
        (0.46391182313302265+1.1529405461835982j),
        (-0.0373737214866765+0.01888887856275849j),
        (-0.0016042027278341958+0j),
        (-0.0014949488594670603-0.0007555551425103397j),
        (0.0007422589170128362-0.0018447048738937572j),
        (0.002431783478066419+0.0008903059766155663j),
        (-0.0012280886233787017+0.0035418333578760134j),
        (-0.00568319758414998-0.0019111554377199385j),
    ),
    (7, 1): (
        (1311817.624182346+1063439.2815850938j),
        (-13654.75980802121+16602.34386504381j),
        (-230.72552550448248-194.72138955595074j),
        (3.115651214151778-3.529409835255911j),
        (0.05837211810705409+0.05765636437223612j),
        (-0.0023169973247740517+0j),
        (0.0011912677164704916-0.001176660497392574j),
        (0.0012976473195134436+0.0014699749417975473j),
        (-0.001961134608067068+0.001655104502001298j),
        (-0.002368643741218684-0.0028799509063788687j),
        (0.004644009090447234-0.003764716679956246j),
    ),
    (7, 2): (
        (-756817.8601051992-1545500.4686360774j),
        (19981.589529987657-9995.288653444739j),
        (152.54580198643472+289.3119592791458j),
        (-4.784042103002876+2.881150885923193j),
        (-0.07782949080940547-0.09326106298564539j),
        (0.002315710461500084-0.004899916472658491j),
        (0.0019854461941174874+0.00022331563765270933j),
        (-0.0002907096357805455+0.0020499650548877362j),
        (-0.0025986384200558125-0.0004705735479450095j),
        (0.0007571316081208001-0.003712589773869358j),
        (0.005894319230183026+0.0012730983166248664j),
    ),
    (7, 3): (
        (-1664999.2922314384-359618.7639900904j),
        (4364.713051626401-21402.34124099185j),
        (305.7272114811463+55.362507342182525j),
        (-0.6979938355090908+4.921966096785455j),
        (-0.09728686351175689-0.010942466244982768j),
        (0.0023157104615000824-0.004899916472658493j),
        (0.0015883569552939897+0.0019032869997070482j),
        (-0.001992520659309819+0.001199979544324529j),
        (-0.0012966179226889718-0.0024591110785399427j),
        (0.003466136910881685-0.001733847994656666j),
        (0.0026792360137195587+0.005471277480442462j),
    ),
    (7, 4): (
        (1664999.2922314384-359618.76399008994j),
        (4364.713051626396+21402.34124099185j),
        (-305.7272114811463+55.36250734218243j),
        (-0.6979938355090897-4.921966096785455j),
        (0.09728686351175689-0.010942466244982758j),
        (0.002315710461500084+0.004899916472658491j),
        (-0.0015883569552939893+0.0019032869997070488j),
        (-0.001992520659309819-0.0011999795443245283j),
        (0.001296617922688971-0.0024591110785399436j),
        (0.0034661369108816864+0.0017338479946566654j),
        (-0.002679236013719557+0.005471277480442463j),
    ),
    (7, 5): (
        (756817.8601051997-1545500.4686360771j),
        (19981.58952998765+9995.288653444744j),
        (-152.54580198643484+289.3119592791457j),
        (-4.784042103002876-2.8811508859231942j),
        (0.0778294908094055-0.09326106298564536j),
        (0.0023157104615000824+0.004899916472658493j),
        (-0.0019854461941174874+0.00022331563765270952j),
        (-0.00029070963578054594-0.0020499650548877362j),
        (0.0025986384200558125-0.00047057354794501034j),
        (0.0007571316081208009+0.003712589773869358j),
        (-0.005894319230183026+0.0012730983166248679j),
    ),
    (7, 6): (
        (-1311817.6241823463+1063439.2815850936j),
        (-13654.759808021203-16602.343865043815j),
        (230.72552550448253-194.72138955595068j),
        (3.1156512141517774+3.5294098352559113j),
        (-0.05837211810705409+0.057656364372236125j),
        (-0.002316997324774055+0j),
        (-0.0011912677164704916-0.001176660497392574j),
        (0.0012976473195134433-0.0014699749417975475j),
        (0.0019611346080670683+0.0016551045020012976j),
        (-0.0023686437412186825+0.002879950906378869j),
        (-0.004644009090447235-0.0037647166799562445j),
    ),
    (8, 1): (
        (4503066.267625938+4567981.525940803j),
        (-44767.88240476663+43581.152645739996j),
        (-462.79178559673664-486.159138730138j),
        (5.902404706309251-5.404408810235617j),
        (0.0684333279174985+0.08205673618715642j),
        (-0.0024953422481380602+0j),
        (0.001069270748710914-0.001282136502924319j),
        (0.001441016774001282+0.00131943574468643j),
        (-0.0017654105590695825+0.0018545499371724625j),
        (-0.002668373728082575-0.0025976391223514078j),
        (0.004193807270029502-0.004254264315535131j),
    ),
    (8, 3): (
        (4654429.839646979-4563307.599833297j),
        (44578.670524319394+46545.85690735498j),
        (-527.027869401962+477.3697462947259j),
        (-5.411905509383831-6.9485256131600766j),
        (0.10753808672749764-0.0466196640565487j),
        (-0.0011375381227908697+0j),
        (0.0016802826051171506+0.0007284322508835735j),
        (-0.0013212659935019119+0.0016964173860254093j),
        (-0.002010451772315834-0.001821021065882591j),
        (0.002657095821161234-0.0027743492667290557j),
        (0.0043347755816271335+0.0042499113826391256j),
    ),
    (8, 5): (
        (-4654429.839646978-4563307.5998332985j),
        (44578.67052431941-46545.856907354966j),
        (527.0278694019619+477.36974629472604j),
        (-5.411905509383835+6.948525613160076j),
        (-0.10753808672749764-0.046619664056548736j),
        (-0.001137538122790867+0j),
        (-0.0016802826051171506+0.000728432250883574j),
        (-0.0013212659935019128-0.001696417386025409j),
        (0.0020104517723158336-0.0018210210658825914j),
        (0.002657095821161235+0.002774349266729055j),
        (-0.004334775581627133+0.004249911382639127j),
    ),
    (8, 7): (
        (-4503066.26762594+4567981.525940801j),
        (-44767.882404766606-43581.15264574001j),
        (462.79178559673676-486.15913873013784j),
        (5.902404706309249+5.40440881023562j),
        (-0.06843332791749851+0.08205673618715642j),
        (-0.002495342248138061+0j),
        (-0.0010692707487109142-0.001282136502924319j),
        (0.0014410167740012815-0.0013194357446864307j),
        (0.001765410559069583+0.0018545499371724619j),
        (-0.0026683737280825738+0.0025976391223514086j),
        (-0.004193807270029504-0.004254264315535129j),
    ),
}
